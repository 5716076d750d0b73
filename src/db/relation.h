// A deliberately small relational layer demonstrating the paper's claim
// that the spatio-temporal types "can be plugged as attribute types into
// any DBMS data model". Enough machinery to express the two Section-2
// queries over the planes relation.

#ifndef MODB_DB_RELATION_H_
#define MODB_DB_RELATION_H_

#include <cstddef>
#include <string>
#include <variant>
#include <vector>

#include "core/status.h"
#include "db/value.h"

namespace modb {

/// An attribute declaration: name and type.
struct AttributeDef {
  std::string name;
  AttributeType type;
};

/// A relation schema.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<AttributeDef> attributes)
      : attributes_(std::move(attributes)) {}

  std::size_t NumAttributes() const { return attributes_.size(); }
  const std::vector<AttributeDef>& attributes() const { return attributes_; }
  const AttributeDef& attribute(std::size_t i) const { return attributes_[i]; }

  /// Index of the attribute named `name`, or -1.
  int IndexOf(const std::string& name) const;

  /// Schema of the cartesian product, prefixing attribute names.
  static Schema Concat(const Schema& a, const std::string& prefix_a,
                       const Schema& b, const std::string& prefix_b);

 private:
  std::vector<AttributeDef> attributes_;
};

/// A tuple: one AttributeValue per schema attribute.
using Tuple = std::vector<AttributeValue>;

/// A relation: schema + tuples. Insertion is type checked.
class Relation {
 public:
  Relation() = default;
  Relation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  std::size_t NumTuples() const { return tuples_.size(); }
  const std::vector<Tuple>& tuples() const { return tuples_; }
  const Tuple& tuple(std::size_t i) const { return tuples_[i]; }

  /// Appends a tuple after checking arity and attribute types.
  Status Insert(Tuple tuple);

  /// Mutable access to one attribute of an existing tuple as its stored
  /// type T; nullptr when row or slot is out of range or the attribute
  /// holds another type. Writing through the pointer cannot change the
  /// attribute's type, so Insert's schema check keeps holding (the
  /// live-ingest path appends to a trail in place).
  template <typename T>
  T* MutableValueAs(std::size_t row, std::size_t slot) {
    if (row >= tuples_.size() || slot >= tuples_[row].size()) return nullptr;
    return std::get_if<T>(&tuples_[row][slot]);
  }

 private:
  std::string name_;
  Schema schema_;
  std::vector<Tuple> tuples_;
};

}  // namespace modb

#endif  // MODB_DB_RELATION_H_
