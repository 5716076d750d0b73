// Flat, pointer-free attribute representations (Section 4).
//
// Every data type is represented as a fixed-size *root record* plus zero
// or more *database arrays*; all cross references are array indices. A
// FlatValue holds exactly that decomposition. SerializeFlat/ParseFlat
// pack it into one byte blob; AttributeStore additionally emulates the
// [DG98] policy of storing small arrays inline in the tuple and large
// arrays in separate page extents.

#ifndef MODB_STORAGE_FLAT_H_
#define MODB_STORAGE_FLAT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/base_types.h"
#include "core/range_set.h"
#include "core/status.h"
#include "spatial/line.h"
#include "spatial/points.h"
#include "spatial/region.h"
#include "storage/page_store.h"
#include "temporal/moving.h"

namespace modb {

// Every byte codec in the repository — ByteWriter/ByteReader below and
// the serve wire codec's WireWriter/WireReader — copies native integers
// and doubles with memcpy, in bulk where a column allows. That is the
// little-endian layout the flat blobs and the wire protocol specify
// only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the flat and wire codecs memcpy native little-endian values");

/// A root record plus database arrays — the decomposition the paper
/// requires of every attribute type.
struct FlatValue {
  std::string root;
  std::vector<std::string> arrays;

  std::size_t TotalBytes() const {
    std::size_t n = root.size();
    for (const std::string& a : arrays) n += a.size();
    return n;
  }
};

/// A flat value read in place: the root record and database arrays as
/// views into bytes someone else owns — a blob (ParseFlat) or a
/// FlatValue's strings. Valid only while those bytes are; the values the
/// *FromFlat decoders build from it copy what they keep.
struct FlatView {
  std::string_view root;
  std::vector<std::string_view> arrays;

  FlatView() = default;
  /// Views `value`'s strings, so every decoder takes a FlatValue too.
  FlatView(const FlatValue& value)  // NOLINT(google-explicit-constructor)
      : root(value.root), arrays(value.arrays.begin(), value.arrays.end()) {}
};

/// Little-endian append-only byte writer.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(char(v)); }
  void PutU32(uint32_t v) { Append(&v, sizeof v); }
  void PutI32(int32_t v) { Append(&v, sizeof v); }
  void PutI64(int64_t v) { Append(&v, sizeof v); }
  void PutF64(double v) { Append(&v, sizeof v); }
  void PutBytes(std::string_view s) { buf_.append(s.data(), s.size()); }

  std::string Take() { return std::move(buf_); }
  std::size_t Size() const { return buf_.size(); }

 private:
  void Append(const void* p, std::size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked little-endian byte reader.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* v) { return Get(v, sizeof *v); }
  Status GetU32(uint32_t* v) { return Get(v, sizeof *v); }
  Status GetI32(int32_t* v) { return Get(v, sizeof *v); }
  Status GetI64(int64_t* v) { return Get(v, sizeof *v); }
  Status GetF64(double* v) { return Get(v, sizeof *v); }
  Status GetBytes(std::size_t n, std::string* out) {
    std::string_view v;
    MODB_RETURN_IF_ERROR(GetView(n, &v));
    out->assign(v.data(), v.size());
    return Status::OK();
  }
  /// The next n bytes, in place (valid while the underlying data is).
  Status GetView(std::size_t n, std::string_view* out) {
    if (n > Remaining()) return Status::OutOfRange("short read");
    *out = data_.substr(pos_, n);
    pos_ += n;
    return Status::OK();
  }
  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t Remaining() const { return data_.size() - pos_; }

 private:
  Status Get(void* p, std::size_t n) {
    if (pos_ + n > data_.size()) return Status::OutOfRange("short read");
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Packs a FlatValue into one contiguous blob, appended to `*out`.
void SerializeFlat(const FlatValue& value, std::string* out);
/// SerializeFlat into a fresh string.
std::string SerializeFlat(const FlatValue& value);
/// SerializeFlat(value).size(), without packing anything.
std::size_t SerializedFlatSize(const FlatValue& value);
/// Inverse of SerializeFlat, in place: the view's root and arrays point
/// into `blob`.
Result<FlatView> ParseFlat(std::string_view blob);

/// SerializeFlat(ToFlat(v)) appended to `*out`, written straight into it
/// without building the FlatValue: strings and the fixed-size-unit
/// mappings. On error `*out` is unchanged.
Status AppendFlat(const StringValue& v, std::string* out);
Status AppendFlat(const MovingBool& m, std::string* out);
Status AppendFlat(const MovingInt& m, std::string* out);
Status AppendFlat(const MovingString& m, std::string* out);
Status AppendFlat(const MovingReal& m, std::string* out);
Status AppendFlat(const MovingPoint& m, std::string* out);

// -- base types --------------------------------------------------------------

FlatValue ToFlat(const IntValue& v);
Result<IntValue> IntFromFlat(const FlatView& f);
FlatValue ToFlat(const RealValue& v);
Result<RealValue> RealFromFlat(const FlatView& f);
FlatValue ToFlat(const BoolValue& v);
Result<BoolValue> BoolFromFlat(const FlatView& f);
/// Strings longer than kMaxStringLength are rejected on write (fixed
/// length array of characters, Section 4.1 footnote).
Result<FlatValue> ToFlat(const StringValue& v);
Result<StringValue> StringFromFlat(const FlatView& f);
/// SerializeFlat(ToFlat(v)).size(), without encoding anything (the
/// root is fixed-length, so the value itself does not matter).
std::size_t SerializedFlatSize(const StringValue& v);

// -- spatial types -----------------------------------------------------------

FlatValue ToFlat(const Point& p);
Result<Point> PointFromFlat(const FlatView& f);
FlatValue ToFlat(const Points& ps);
Result<Points> PointsFromFlat(const FlatView& f);
FlatValue ToFlat(const Line& l);
Result<Line> LineFromFlat(const FlatView& f);
FlatValue ToFlat(const Region& r);
Result<Region> RegionFromFlat(const FlatView& f);

// -- range types -------------------------------------------------------------

FlatValue ToFlat(const Periods& p);
Result<Periods> PeriodsFromFlat(const FlatView& f);

// -- sliced representations (Figure 7) ---------------------------------------

FlatValue ToFlat(const MovingBool& m);
Result<MovingBool> MovingBoolFromFlat(const FlatView& f);
FlatValue ToFlat(const MovingInt& m);
Result<MovingInt> MovingIntFromFlat(const FlatView& f);
Result<FlatValue> ToFlat(const MovingString& m);
Result<MovingString> MovingStringFromFlat(const FlatView& f);
FlatValue ToFlat(const MovingReal& m);
Result<MovingReal> MovingRealFromFlat(const FlatView& f);
FlatValue ToFlat(const MovingPoint& m);
Result<MovingPoint> MovingPointFromFlat(const FlatView& f);
/// SerializeFlat(ToFlat(m)).size(), without encoding anything.
std::size_t SerializedFlatSize(const MovingPoint& m);
FlatValue ToFlat(const MovingPoints& m);
Result<MovingPoints> MovingPointsFromFlat(const FlatView& f);
FlatValue ToFlat(const MovingLine& m);
Result<MovingLine> MovingLineFromFlat(const FlatView& f);
FlatValue ToFlat(const MovingRegion& m);
Result<MovingRegion> MovingRegionFromFlat(const FlatView& f);

// -- [DG98]-style tuple placement --------------------------------------------

/// Stores attribute values as tuple blobs; database arrays whose size
/// exceeds `inline_threshold` go to a page store and are referenced from
/// the tuple by extent, smaller ones are embedded inline.
class AttributeStore {
 public:
  explicit AttributeStore(std::size_t inline_threshold = 256)
      : inline_threshold_(inline_threshold) {}

  /// Returns the tuple representation of the value.
  std::string Put(const FlatValue& value);
  /// Reassembles the FlatValue from a tuple blob.
  Result<FlatValue> Get(std::string_view tuple) const;

  const PageStore& page_store() const { return store_; }
  std::size_t inline_threshold() const { return inline_threshold_; }

 private:
  std::size_t inline_threshold_;
  PageStore store_;
};

}  // namespace modb

#endif  // MODB_STORAGE_FLAT_H_
