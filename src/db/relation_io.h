// Relation persistence: every attribute value serializes to its flat
// representation (Section 4) prefixed with its type tag; a relation file
// is schema + tuples of tagged blobs. This closes the loop of the paper's
// DBMS-embedding story: moving objects stored as attribute values survive
// a round trip through secondary memory.

#ifndef MODB_DB_RELATION_IO_H_
#define MODB_DB_RELATION_IO_H_

#include <string>
#include <string_view>

#include "core/status.h"
#include "db/relation.h"

namespace modb {

/// Serializes one attribute value (type tag + flat blob), appended to
/// `*out`. On error nothing is appended.
Status SerializeAttribute(const AttributeValue& value, std::string* out);
/// SerializeAttribute into a fresh string.
Result<std::string> SerializeAttribute(const AttributeValue& value);
/// The size SerializeAttribute would append: closed form where the flat
/// layout has one (a moving point, a string), otherwise the value is
/// decomposed (ToFlat) and measured.
Result<std::size_t> SerializedAttributeSize(const AttributeValue& value);

/// Inverse of SerializeAttribute; reads `blob` in place.
Result<AttributeValue> DeserializeAttribute(std::string_view blob);

/// Writes the relation (name, schema, tuples) to a file.
Status SaveRelation(const Relation& rel, const std::string& path);

/// Reads a relation written by SaveRelation. All values are rebuilt
/// through the validating flat decoders.
Result<Relation> LoadRelation(const std::string& path);

/// The timeslice operator: evaluates every moving attribute at instant t,
/// yielding a relation of static values (undefined moving attributes
/// become undefined base values / empty spatial values; mpoint → point,
/// mregion → region, mreal → real, …).
Result<Relation> Timeslice(const Relation& rel, Instant t);

}  // namespace modb

#endif  // MODB_DB_RELATION_IO_H_
