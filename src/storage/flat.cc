#include "storage/flat.h"

#include <cassert>
#include <utility>

namespace modb {

namespace {

constexpr uint32_t kMagic = 0x4d4f4442;  // "MODB"
// A blob's header: magic, root size, array count.
constexpr std::size_t kBlobHeaderBytes = 3 * sizeof(uint32_t);

// Appends the blob header of a value with `root_bytes` of root record
// and `num_arrays` database arrays.
void AppendBlobHeader(std::size_t root_bytes, std::size_t num_arrays,
                      std::string* out) {
  const uint32_t header[3] = {kMagic, uint32_t(root_bytes),
                              uint32_t(num_arrays)};
  out->append(reinterpret_cast<const char*>(header), sizeof header);
}

// -- shared record helpers ---------------------------------------------------

// The interval and motion helpers serve both the appending ByteWriter /
// ByteReader and the fixed-record RecordWriter / RecordReader below.
template <typename Writer>
void PutInterval(Writer* w, const TimeInterval& iv) {
  w->PutF64(iv.start());
  w->PutF64(iv.end());
  w->PutU8(iv.left_closed() ? 1 : 0);
  w->PutU8(iv.right_closed() ? 1 : 0);
}

template <typename Reader>
Result<TimeInterval> GetInterval(Reader* r) {
  double s, e;
  uint8_t lc, rc;
  MODB_RETURN_IF_ERROR(r->GetF64(&s));
  MODB_RETURN_IF_ERROR(r->GetF64(&e));
  MODB_RETURN_IF_ERROR(r->GetU8(&lc));
  MODB_RETURN_IF_ERROR(r->GetU8(&rc));
  return TimeInterval::Make(s, e, lc != 0, rc != 0);
}

template <typename Writer>
void PutMotion(Writer* w, const LinearMotion& m) {
  w->PutF64(m.x0);
  w->PutF64(m.x1);
  w->PutF64(m.y0);
  w->PutF64(m.y1);
}

template <typename Reader>
Status GetMotion(Reader* r, LinearMotion* m) {
  MODB_RETURN_IF_ERROR(r->GetF64(&m->x0));
  MODB_RETURN_IF_ERROR(r->GetF64(&m->x1));
  MODB_RETURN_IF_ERROR(r->GetF64(&m->y0));
  MODB_RETURN_IF_ERROR(r->GetF64(&m->y1));
  return Status::OK();
}

void PutMSeg(ByteWriter* w, const MSeg& m) {
  PutMotion(w, m.s());
  PutMotion(w, m.e());
}

Result<MSeg> GetMSeg(ByteReader* r) {
  LinearMotion s, e;
  MODB_RETURN_IF_ERROR(GetMotion(r, &s));
  MODB_RETURN_IF_ERROR(GetMotion(r, &e));
  return MSeg::Make(s, e);
}

void PutRect(ByteWriter* w, const Rect& r) {
  w->PutF64(r.min_x);
  w->PutF64(r.min_y);
  w->PutF64(r.max_x);
  w->PutF64(r.max_y);
}

Status GetRect(ByteReader* r, Rect* out) {
  MODB_RETURN_IF_ERROR(r->GetF64(&out->min_x));
  MODB_RETURN_IF_ERROR(r->GetF64(&out->min_y));
  MODB_RETURN_IF_ERROR(r->GetF64(&out->max_x));
  MODB_RETURN_IF_ERROR(r->GetF64(&out->max_y));
  return Status::OK();
}

void PutSeg(ByteWriter* w, const Seg& s) {
  w->PutF64(s.a().x);
  w->PutF64(s.a().y);
  w->PutF64(s.b().x);
  w->PutF64(s.b().y);
}

Result<Seg> GetSeg(ByteReader* r) {
  double ax, ay, bx, by;
  MODB_RETURN_IF_ERROR(r->GetF64(&ax));
  MODB_RETURN_IF_ERROR(r->GetF64(&ay));
  MODB_RETURN_IF_ERROR(r->GetF64(&bx));
  MODB_RETURN_IF_ERROR(r->GetF64(&by));
  return Seg::Make(Point(ax, ay), Point(bx, by));
}

// A generic fixed-record base-value encoder.
template <typename T, typename PutFn>
FlatValue BaseToFlat(const BaseValue<T>& v, PutFn put) {
  ByteWriter w;
  w.PutU8(v.defined() ? 1 : 0);
  put(&w, v);
  return FlatValue{w.Take(), {}};
}

// A count-driven database array holds exactly `n` records of
// `record_bytes` each. A corrupted count must not drive a huge
// allocation, so a count beyond the array is rejected before anything
// is reserved for it; bytes left after the n-th record are corruption
// too.
Status CheckArrayCount(uint32_t n, std::size_t array_bytes,
                       std::size_t record_bytes) {
  if (std::size_t(n) > array_bytes / record_bytes) {
    return Status::InvalidArgument("count field exceeds its database array");
  }
  if (std::size_t(n) * record_bytes != array_bytes) {
    return Status::InvalidArgument(
        "database array has trailing bytes after its " + std::to_string(n) +
        " records");
  }
  return Status::OK();
}

// Record sizes of the fixed-width array entries (bytes on the wire).
constexpr std::size_t kIntervalBytes = 18;   // 2 f64 + 2 u8
constexpr std::size_t kPointBytes = 16;      // 2 f64
constexpr std::size_t kLineHsBytes = 33;     // seg + left_dominating u8
constexpr std::size_t kRegionHsBytes = 46;   // seg + 2 u8 + 3 i32
constexpr std::size_t kCycleRecBytes = 17;   // 3 i32 + u8 + i32
constexpr std::size_t kFaceRecBytes = 8;     // 2 i32
constexpr std::size_t kSubarrayRefBytes = 8; // offset u32 + count u32

}  // namespace

// -- blob packing ------------------------------------------------------------

void SerializeFlat(const FlatValue& value, std::string* out) {
  AppendBlobHeader(value.root.size(), value.arrays.size(), out);
  out->append(value.root);
  for (const std::string& a : value.arrays) {
    const uint32_t n = uint32_t(a.size());
    out->append(reinterpret_cast<const char*>(&n), sizeof n);
    out->append(a);
  }
}

std::string SerializeFlat(const FlatValue& value) {
  std::string blob;
  blob.reserve(SerializedFlatSize(value));
  SerializeFlat(value, &blob);
  return blob;
}

std::size_t SerializedFlatSize(const FlatValue& value) {
  return kBlobHeaderBytes + value.TotalBytes() +
         value.arrays.size() * sizeof(uint32_t);
}

Result<FlatView> ParseFlat(std::string_view blob) {
  ByteReader r(blob);
  uint32_t magic, root_size, num_arrays;
  MODB_RETURN_IF_ERROR(r.GetU32(&magic));
  if (magic != kMagic) return Status::InvalidArgument("bad magic");
  MODB_RETURN_IF_ERROR(r.GetU32(&root_size));
  MODB_RETURN_IF_ERROR(r.GetU32(&num_arrays));
  FlatView out;
  MODB_RETURN_IF_ERROR(r.GetView(root_size, &out.root));
  for (uint32_t i = 0; i < num_arrays; ++i) {
    uint32_t n;
    MODB_RETURN_IF_ERROR(r.GetU32(&n));
    std::string_view a;
    MODB_RETURN_IF_ERROR(r.GetView(n, &a));
    out.arrays.push_back(a);
  }
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes");
  return out;
}

// -- base types --------------------------------------------------------------

FlatValue ToFlat(const IntValue& v) {
  return BaseToFlat(v, [](ByteWriter* w, const IntValue& x) {
    w->PutI64(x.defined() ? x.value() : 0);
  });
}

Result<IntValue> IntFromFlat(const FlatView& f) {
  ByteReader r(f.root);
  uint8_t defined;
  int64_t value;
  MODB_RETURN_IF_ERROR(r.GetU8(&defined));
  MODB_RETURN_IF_ERROR(r.GetI64(&value));
  return defined ? IntValue(value) : IntValue::Undefined();
}

FlatValue ToFlat(const RealValue& v) {
  return BaseToFlat(v, [](ByteWriter* w, const RealValue& x) {
    w->PutF64(x.defined() ? x.value() : 0);
  });
}

Result<RealValue> RealFromFlat(const FlatView& f) {
  ByteReader r(f.root);
  uint8_t defined;
  double value;
  MODB_RETURN_IF_ERROR(r.GetU8(&defined));
  MODB_RETURN_IF_ERROR(r.GetF64(&value));
  return defined ? RealValue(value) : RealValue::Undefined();
}

FlatValue ToFlat(const BoolValue& v) {
  return BaseToFlat(v, [](ByteWriter* w, const BoolValue& x) {
    w->PutU8(x.defined() && x.value() ? 1 : 0);
  });
}

Result<BoolValue> BoolFromFlat(const FlatView& f) {
  ByteReader r(f.root);
  uint8_t defined, value;
  MODB_RETURN_IF_ERROR(r.GetU8(&defined));
  MODB_RETURN_IF_ERROR(r.GetU8(&value));
  return defined ? BoolValue(value != 0) : BoolValue::Undefined();
}

namespace {

constexpr std::size_t kStringRootBytes = 2 + kMaxStringLength;

Status CheckFlatString(const StringValue& v) {
  if (v.defined() && !FitsFlatString(v.value())) {
    return Status::InvalidArgument("string exceeds fixed attribute length");
  }
  return Status::OK();
}

// Root: defined u8, length u8, the characters padded to the fixed
// kMaxStringLength. `root` holds kStringRootBytes NULs on entry.
void WriteStringRoot(const StringValue& v, char* root) {
  if (!v.defined()) return;
  root[0] = 1;
  root[1] = char(uint8_t(v.value().size()));
  v.value().copy(root + 2, v.value().size());
}

}  // namespace

Result<FlatValue> ToFlat(const StringValue& v) {
  MODB_RETURN_IF_ERROR(CheckFlatString(v));
  std::string root(kStringRootBytes, '\0');
  WriteStringRoot(v, root.data());
  return FlatValue{std::move(root), {}};
}

Status AppendFlat(const StringValue& v, std::string* out) {
  MODB_RETURN_IF_ERROR(CheckFlatString(v));
  AppendBlobHeader(kStringRootBytes, 0, out);
  const std::size_t at = out->size();
  out->resize(at + kStringRootBytes);
  WriteStringRoot(v, out->data() + at);
  return Status::OK();
}

std::size_t SerializedFlatSize(const StringValue&) {
  return kBlobHeaderBytes + kStringRootBytes;
}

Result<StringValue> StringFromFlat(const FlatView& f) {
  ByteReader r(f.root);
  uint8_t defined, len;
  MODB_RETURN_IF_ERROR(r.GetU8(&defined));
  MODB_RETURN_IF_ERROR(r.GetU8(&len));
  std::string_view padded;
  MODB_RETURN_IF_ERROR(r.GetView(kMaxStringLength, &padded));
  if (len > kMaxStringLength) return Status::InvalidArgument("bad length");
  if (!defined) return StringValue::Undefined();
  return StringValue(std::string(padded.substr(0, len)));
}

// -- spatial types -----------------------------------------------------------

FlatValue ToFlat(const Point& p) {
  ByteWriter w;
  w.PutF64(p.x);
  w.PutF64(p.y);
  return FlatValue{w.Take(), {}};
}

Result<Point> PointFromFlat(const FlatView& f) {
  ByteReader r(f.root);
  Point p;
  MODB_RETURN_IF_ERROR(r.GetF64(&p.x));
  MODB_RETURN_IF_ERROR(r.GetF64(&p.y));
  return p;
}

FlatValue ToFlat(const Points& ps) {
  ByteWriter root;
  root.PutU32(uint32_t(ps.Size()));
  PutRect(&root, ps.BoundingBox());
  ByteWriter arr;
  for (const Point& p : ps.points()) {
    arr.PutF64(p.x);
    arr.PutF64(p.y);
  }
  return FlatValue{root.Take(), {arr.Take()}};
}

Result<Points> PointsFromFlat(const FlatView& f) {
  if (f.arrays.size() != 1) return Status::InvalidArgument("points arity");
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  MODB_RETURN_IF_ERROR(CheckArrayCount(n, f.arrays[0].size(), kPointBytes));
  ByteReader arr(f.arrays[0]);
  std::vector<Point> pts(n);
  for (uint32_t i = 0; i < n; ++i) {
    MODB_RETURN_IF_ERROR(arr.GetF64(&pts[i].x));
    MODB_RETURN_IF_ERROR(arr.GetF64(&pts[i].y));
  }
  return Points::FromVector(std::move(pts));
}

FlatValue ToFlat(const Line& l) {
  ByteWriter root;
  root.PutU32(uint32_t(l.NumSegments()));
  root.PutF64(l.Length());
  PutRect(&root, l.BoundingBox());
  ByteWriter arr;
  // Halfsegment array, sorted (Section 4.1).
  for (const HalfSegment& h : l.HalfSegments()) {
    PutSeg(&arr, h.seg);
    arr.PutU8(h.left_dominating ? 1 : 0);
  }
  return FlatValue{root.Take(), {arr.Take()}};
}

Result<Line> LineFromFlat(const FlatView& f) {
  if (f.arrays.size() != 1) return Status::InvalidArgument("line arity");
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  // Two halfsegments per segment.
  MODB_RETURN_IF_ERROR(
      CheckArrayCount(n, f.arrays[0].size(), 2 * kLineHsBytes));
  ByteReader arr(f.arrays[0]);
  std::vector<Seg> segs;
  segs.reserve(n);
  for (uint32_t i = 0; i < 2 * n; ++i) {
    Result<Seg> s = GetSeg(&arr);
    if (!s.ok()) return s.status();
    uint8_t ldp;
    MODB_RETURN_IF_ERROR(arr.GetU8(&ldp));
    if (ldp) segs.push_back(*s);
  }
  return Line::Make(std::move(segs));
}

FlatValue ToFlat(const Region& reg) {
  ByteWriter root;
  root.PutU32(uint32_t(reg.halfsegments().size()));
  root.PutU32(uint32_t(reg.NumCycles()));
  root.PutU32(uint32_t(reg.NumFaces()));
  root.PutF64(reg.Area());
  root.PutF64(reg.Perimeter());
  PutRect(&root, reg.BoundingBox());
  ByteWriter hs;
  for (const HalfSegment& h : reg.halfsegments()) {
    PutSeg(&hs, h.seg);
    hs.PutU8(h.left_dominating ? 1 : 0);
    hs.PutU8(h.inside_above ? 1 : 0);
    hs.PutI32(h.cycle);
    hs.PutI32(h.face);
    hs.PutI32(h.next_in_cycle);
  }
  ByteWriter cy;
  for (const CycleRecord& c : reg.cycles()) {
    cy.PutI32(c.first_halfsegment);
    cy.PutI32(c.next_cycle_in_face);
    cy.PutI32(c.face);
    cy.PutU8(c.is_hole ? 1 : 0);
    cy.PutI32(c.size);
  }
  ByteWriter fa;
  for (const FaceRecord& fc : reg.faces()) {
    fa.PutI32(fc.first_cycle);
    fa.PutI32(fc.num_holes);
  }
  return FlatValue{root.Take(), {hs.Take(), cy.Take(), fa.Take()}};
}

Result<Region> RegionFromFlat(const FlatView& f) {
  if (f.arrays.size() != 3) return Status::InvalidArgument("region arity");
  ByteReader root(f.root);
  uint32_t n_hs, n_cy, n_fa;
  double area, perimeter;
  Rect bbox;
  MODB_RETURN_IF_ERROR(root.GetU32(&n_hs));
  MODB_RETURN_IF_ERROR(root.GetU32(&n_cy));
  MODB_RETURN_IF_ERROR(root.GetU32(&n_fa));
  MODB_RETURN_IF_ERROR(root.GetF64(&area));
  MODB_RETURN_IF_ERROR(root.GetF64(&perimeter));
  MODB_RETURN_IF_ERROR(GetRect(&root, &bbox));
  MODB_RETURN_IF_ERROR(
      CheckArrayCount(n_hs, f.arrays[0].size(), kRegionHsBytes));
  MODB_RETURN_IF_ERROR(
      CheckArrayCount(n_cy, f.arrays[1].size(), kCycleRecBytes));
  MODB_RETURN_IF_ERROR(
      CheckArrayCount(n_fa, f.arrays[2].size(), kFaceRecBytes));
  if (n_hs == 0) return Region();
  ByteReader hsr(f.arrays[0]);
  std::vector<HalfSegment> hs;
  hs.reserve(n_hs);
  for (uint32_t i = 0; i < n_hs; ++i) {
    Result<Seg> s = GetSeg(&hsr);
    if (!s.ok()) return s.status();
    uint8_t ldp, ia;
    MODB_RETURN_IF_ERROR(hsr.GetU8(&ldp));
    MODB_RETURN_IF_ERROR(hsr.GetU8(&ia));
    HalfSegment h{.seg = *s, .left_dominating = ldp != 0,
                  .inside_above = ia != 0};
    MODB_RETURN_IF_ERROR(hsr.GetI32(&h.cycle));
    MODB_RETURN_IF_ERROR(hsr.GetI32(&h.face));
    MODB_RETURN_IF_ERROR(hsr.GetI32(&h.next_in_cycle));
    hs.push_back(h);
  }
  ByteReader cyr(f.arrays[1]);
  std::vector<CycleRecord> cycles(n_cy);
  for (uint32_t i = 0; i < n_cy; ++i) {
    uint8_t hole;
    MODB_RETURN_IF_ERROR(cyr.GetI32(&cycles[i].first_halfsegment));
    MODB_RETURN_IF_ERROR(cyr.GetI32(&cycles[i].next_cycle_in_face));
    MODB_RETURN_IF_ERROR(cyr.GetI32(&cycles[i].face));
    MODB_RETURN_IF_ERROR(cyr.GetU8(&hole));
    cycles[i].is_hole = hole != 0;
    MODB_RETURN_IF_ERROR(cyr.GetI32(&cycles[i].size));
  }
  ByteReader far(f.arrays[2]);
  std::vector<FaceRecord> faces(n_fa);
  for (uint32_t i = 0; i < n_fa; ++i) {
    MODB_RETURN_IF_ERROR(far.GetI32(&faces[i].first_cycle));
    MODB_RETURN_IF_ERROR(far.GetI32(&faces[i].num_holes));
  }
  return Region::FromParts(std::move(hs), std::move(cycles), std::move(faces),
                           area, perimeter, bbox);
}

// -- range types -------------------------------------------------------------

FlatValue ToFlat(const Periods& p) {
  ByteWriter root;
  root.PutU32(uint32_t(p.NumIntervals()));
  ByteWriter arr;
  for (const TimeInterval& iv : p.intervals()) PutInterval(&arr, iv);
  return FlatValue{root.Take(), {arr.Take()}};
}

Result<Periods> PeriodsFromFlat(const FlatView& f) {
  if (f.arrays.size() != 1) return Status::InvalidArgument("periods arity");
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  MODB_RETURN_IF_ERROR(
      CheckArrayCount(n, f.arrays[0].size(), kIntervalBytes));
  ByteReader arr(f.arrays[0]);
  std::vector<TimeInterval> ivs;
  ivs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Result<TimeInterval> iv = GetInterval(&arr);
    if (!iv.ok()) return iv.status();
    ivs.push_back(*iv);
  }
  return Periods::FromIntervals(std::move(ivs));
}

// -- sliced representations --------------------------------------------------

namespace {

// Unit record sizes after the interval, per fixed-size unit type.
constexpr std::size_t kUBoolBytes = 1;
constexpr std::size_t kUIntBytes = 8;
constexpr std::size_t kUStringBytes = 1 + kMaxStringLength;
constexpr std::size_t kURealBytes = 3 * 8 + 1;
constexpr std::size_t kUPointBytes = 4 * 8;

// Fixed-record access to a database array whose size was settled once
// for the whole array: the writer's buffer is allocated at its final
// size, the reader's was checked against the record count, so each
// field is one plain copy with no per-field capacity or bounds check.
class RecordWriter {
 public:
  explicit RecordWriter(char* p) : p_(p) {}
  void PutU8(uint8_t v) { *p_++ = char(v); }
  void PutI64(int64_t v) { Put(&v, sizeof v); }
  void PutF64(double v) { Put(&v, sizeof v); }
  void PutBytes(std::string_view s) { Put(s.data(), s.size()); }
  const char* pos() const { return p_; }

 private:
  void Put(const void* v, std::size_t n) {
    std::memcpy(p_, v, n);
    p_ += n;
  }
  char* p_;
};

class RecordReader {
 public:
  explicit RecordReader(const char* p) : p_(p) {}
  Status GetU8(uint8_t* v) { return Get(v, sizeof *v); }
  Status GetI64(int64_t* v) { return Get(v, sizeof *v); }
  Status GetF64(double* v) { return Get(v, sizeof *v); }
  Status GetView(std::size_t n, std::string_view* out) {
    *out = std::string_view(p_, n);
    p_ += n;
    return Status::OK();
  }

 private:
  Status Get(void* v, std::size_t n) {
    std::memcpy(v, p_, n);
    p_ += n;
    return Status::OK();
  }
  const char* p_;
};

// Fixed-size-unit mappings: one `units` array (Figure 7 with k = 0
// subarrays) of records of an interval plus `value_bytes` written by
// `put` / read by `get`.
template <typename U>
std::size_t FixedUnitsBytes(const Mapping<U>& m, std::size_t value_bytes) {
  return m.NumUnits() * (kIntervalBytes + value_bytes);
}

// Writes the units array into the FixedUnitsBytes(m, value_bytes) bytes
// at `p`.
template <typename U, typename PutUnit>
void WriteFixedUnits(const Mapping<U>& m, std::size_t value_bytes,
                     PutUnit put, char* p) {
  RecordWriter w(p);
  for (const U& u : m.units()) {
    PutInterval(&w, u.interval());
    put(&w, u);
  }
  assert(w.pos() == p + FixedUnitsBytes(m, value_bytes));
  (void)value_bytes;
}

template <typename U, typename PutUnit>
FlatValue FixedMappingToFlat(const Mapping<U>& m, std::size_t value_bytes,
                             PutUnit put) {
  ByteWriter root;
  root.PutU32(uint32_t(m.NumUnits()));
  std::string units(FixedUnitsBytes(m, value_bytes), '\0');
  WriteFixedUnits(m, value_bytes, put, units.data());
  return FlatValue{root.Take(), {std::move(units)}};
}

// SerializeFlat(FixedMappingToFlat(m, value_bytes, put)) appended to
// `*out`, the units written in place.
template <typename U, typename PutUnit>
void AppendFixedMapping(const Mapping<U>& m, std::size_t value_bytes,
                        PutUnit put, std::string* out) {
  const std::size_t units_bytes = FixedUnitsBytes(m, value_bytes);
  AppendBlobHeader(sizeof(uint32_t), 1, out);
  const uint32_t sizes[2] = {uint32_t(m.NumUnits()), uint32_t(units_bytes)};
  out->append(reinterpret_cast<const char*>(sizes), sizeof sizes);
  const std::size_t at = out->size();
  out->resize(at + units_bytes);
  WriteFixedUnits(m, value_bytes, put, out->data() + at);
}

// The per-unit value writers, shared by ToFlat and AppendFlat.
constexpr auto kPutUBool = [](auto* w, const UBool& u) {
  w->PutU8(u.value() ? 1 : 0);
};
constexpr auto kPutUInt = [](auto* w, const UInt& u) { w->PutI64(u.value()); };
constexpr auto kPutUString = [](auto* w, const UString& u) {
  std::string padded(kMaxStringLength, '\0');
  padded.replace(0, u.value().size(), u.value());
  w->PutU8(uint8_t(u.value().size()));
  w->PutBytes(padded);
};
constexpr auto kPutUReal = [](auto* w, const UReal& u) {
  w->PutF64(u.a());
  w->PutF64(u.b());
  w->PutF64(u.c());
  w->PutU8(u.root() ? 1 : 0);
};
constexpr auto kPutUPoint = [](auto* w, const UPoint& u) {
  PutMotion(w, u.motion());
};

Status CheckFlatStrings(const MovingString& m) {
  for (const UString& u : m.units()) {
    if (!FitsFlatString(u.value())) {
      return Status::InvalidArgument("string exceeds fixed attribute length");
    }
  }
  return Status::OK();
}

template <typename U, typename GetUnit>
Result<Mapping<U>> FixedMappingFromFlat(const FlatView& f,
                                        std::size_t value_bytes,
                                        GetUnit get) {
  if (f.arrays.size() != 1) return Status::InvalidArgument("mapping arity");
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  MODB_RETURN_IF_ERROR(
      CheckArrayCount(n, f.arrays[0].size(), kIntervalBytes + value_bytes));
  RecordReader units(f.arrays[0].data());
  std::vector<U> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Result<TimeInterval> iv = GetInterval(&units);
    if (!iv.ok()) return iv.status();
    Result<U> u = get(&units, *iv);
    if (!u.ok()) return u.status();
    out.push_back(std::move(*u));
  }
  return Mapping<U>::Make(std::move(out));
}

}  // namespace

FlatValue ToFlat(const MovingBool& m) {
  return FixedMappingToFlat(m, kUBoolBytes, kPutUBool);
}

Status AppendFlat(const MovingBool& m, std::string* out) {
  AppendFixedMapping(m, kUBoolBytes, kPutUBool, out);
  return Status::OK();
}

Result<MovingBool> MovingBoolFromFlat(const FlatView& f) {
  return FixedMappingFromFlat<UBool>(
      f, kUBoolBytes, [](auto* r, TimeInterval iv) -> Result<UBool> {
        uint8_t v;
        MODB_RETURN_IF_ERROR(r->GetU8(&v));
        return UBool::Make(iv, v != 0);
      });
}

FlatValue ToFlat(const MovingInt& m) {
  return FixedMappingToFlat(m, kUIntBytes, kPutUInt);
}

Status AppendFlat(const MovingInt& m, std::string* out) {
  AppendFixedMapping(m, kUIntBytes, kPutUInt, out);
  return Status::OK();
}

Result<MovingInt> MovingIntFromFlat(const FlatView& f) {
  return FixedMappingFromFlat<UInt>(
      f, kUIntBytes, [](auto* r, TimeInterval iv) -> Result<UInt> {
        int64_t v;
        MODB_RETURN_IF_ERROR(r->GetI64(&v));
        return UInt::Make(iv, v);
      });
}

Result<FlatValue> ToFlat(const MovingString& m) {
  MODB_RETURN_IF_ERROR(CheckFlatStrings(m));
  return FixedMappingToFlat(m, kUStringBytes, kPutUString);
}

Status AppendFlat(const MovingString& m, std::string* out) {
  MODB_RETURN_IF_ERROR(CheckFlatStrings(m));
  AppendFixedMapping(m, kUStringBytes, kPutUString, out);
  return Status::OK();
}

Result<MovingString> MovingStringFromFlat(const FlatView& f) {
  return FixedMappingFromFlat<UString>(
      f, kUStringBytes, [](auto* r, TimeInterval iv) -> Result<UString> {
        uint8_t len;
        MODB_RETURN_IF_ERROR(r->GetU8(&len));
        std::string_view padded;
        MODB_RETURN_IF_ERROR(r->GetView(kMaxStringLength, &padded));
        if (len > kMaxStringLength) {
          return Status::InvalidArgument("bad string length");
        }
        return UString::Make(iv, std::string(padded.substr(0, len)));
      });
}

FlatValue ToFlat(const MovingReal& m) {
  return FixedMappingToFlat(m, kURealBytes, kPutUReal);
}

Status AppendFlat(const MovingReal& m, std::string* out) {
  AppendFixedMapping(m, kURealBytes, kPutUReal, out);
  return Status::OK();
}

Result<MovingReal> MovingRealFromFlat(const FlatView& f) {
  return FixedMappingFromFlat<UReal>(
      f, kURealBytes, [](auto* r, TimeInterval iv) -> Result<UReal> {
        double a, b, c;
        uint8_t root;
        MODB_RETURN_IF_ERROR(r->GetF64(&a));
        MODB_RETURN_IF_ERROR(r->GetF64(&b));
        MODB_RETURN_IF_ERROR(r->GetF64(&c));
        MODB_RETURN_IF_ERROR(r->GetU8(&root));
        return UReal::Make(iv, a, b, c, root != 0);
      });
}

FlatValue ToFlat(const MovingPoint& m) {
  return FixedMappingToFlat(m, kUPointBytes, kPutUPoint);
}

Status AppendFlat(const MovingPoint& m, std::string* out) {
  AppendFixedMapping(m, kUPointBytes, kPutUPoint, out);
  return Status::OK();
}

std::size_t SerializedFlatSize(const MovingPoint& m) {
  // Blob header, the u32 unit-count root, one u32 array length, then
  // interval + 4 f64 motion per unit.
  return kBlobHeaderBytes + 4 + 4 +
         m.NumUnits() * (kIntervalBytes + kUPointBytes);
}

Result<MovingPoint> MovingPointFromFlat(const FlatView& f) {
  return FixedMappingFromFlat<UPoint>(
      f, kUPointBytes, [](auto* r, TimeInterval iv) -> Result<UPoint> {
        LinearMotion mo;
        MODB_RETURN_IF_ERROR(GetMotion(r, &mo));
        return UPoint::Make(iv, mo);
      });
}

FlatValue ToFlat(const MovingPoints& m) {
  // Figure 7 layout: a units array with subarray references into one
  // shared motions array.
  ByteWriter root;
  root.PutU32(uint32_t(m.NumUnits()));
  ByteWriter units;
  ByteWriter motions;
  uint32_t offset = 0;
  for (const UPoints& u : m.units()) {
    PutInterval(&units, u.interval());
    units.PutU32(offset);
    units.PutU32(uint32_t(u.Size()));
    for (const LinearMotion& mo : u.motions()) PutMotion(&motions, mo);
    offset += uint32_t(u.Size());
  }
  return FlatValue{root.Take(), {units.Take(), motions.Take()}};
}

Result<MovingPoints> MovingPointsFromFlat(const FlatView& f) {
  if (f.arrays.size() != 2) return Status::InvalidArgument("mpoints arity");
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  ByteReader units(f.arrays[0]);
  ByteReader motions(f.arrays[1]);
  // Decode the shared motions array once.
  std::vector<LinearMotion> all;
  while (!motions.AtEnd()) {
    LinearMotion mo;
    MODB_RETURN_IF_ERROR(GetMotion(&motions, &mo));
    all.push_back(mo);
  }
  MODB_RETURN_IF_ERROR(CheckArrayCount(n, f.arrays[0].size(),
                                       kIntervalBytes + kSubarrayRefBytes));
  std::vector<UPoints> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Result<TimeInterval> iv = GetInterval(&units);
    if (!iv.ok()) return iv.status();
    uint32_t start, count;
    MODB_RETURN_IF_ERROR(units.GetU32(&start));
    MODB_RETURN_IF_ERROR(units.GetU32(&count));
    if (std::size_t(start) + count > all.size()) {
      return Status::OutOfRange("motion subarray out of range");
    }
    out.push_back(UPoints::MakeTrusted(
        *iv, std::vector<LinearMotion>(all.begin() + start,
                                       all.begin() + start + count)));
  }
  return MovingPoints::Make(std::move(out));
}

FlatValue ToFlat(const MovingLine& m) {
  ByteWriter root;
  root.PutU32(uint32_t(m.NumUnits()));
  ByteWriter units;
  ByteWriter msegs;
  uint32_t offset = 0;
  for (const ULine& u : m.units()) {
    PutInterval(&units, u.interval());
    units.PutU32(offset);
    units.PutU32(uint32_t(u.Size()));
    for (const MSeg& s : u.msegs()) PutMSeg(&msegs, s);
    offset += uint32_t(u.Size());
  }
  return FlatValue{root.Take(), {units.Take(), msegs.Take()}};
}

Result<MovingLine> MovingLineFromFlat(const FlatView& f) {
  if (f.arrays.size() != 2) return Status::InvalidArgument("mline arity");
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  ByteReader units(f.arrays[0]);
  ByteReader msr(f.arrays[1]);
  std::vector<MSeg> all;
  while (!msr.AtEnd()) {
    Result<MSeg> ms = GetMSeg(&msr);
    if (!ms.ok()) return ms.status();
    all.push_back(*ms);
  }
  MODB_RETURN_IF_ERROR(CheckArrayCount(n, f.arrays[0].size(),
                                       kIntervalBytes + kSubarrayRefBytes));
  std::vector<ULine> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Result<TimeInterval> iv = GetInterval(&units);
    if (!iv.ok()) return iv.status();
    uint32_t start, count;
    MODB_RETURN_IF_ERROR(units.GetU32(&start));
    MODB_RETURN_IF_ERROR(units.GetU32(&count));
    if (std::size_t(start) + count > all.size()) {
      return Status::OutOfRange("mseg subarray out of range");
    }
    out.push_back(ULine::MakeTrusted(
        *iv, std::vector<MSeg>(all.begin() + start, all.begin() + start +
                                                        count)));
  }
  return MovingLine::Make(std::move(out));
}

FlatValue ToFlat(const MovingRegion& m) {
  // Figure 7 + Section 4.2: units reference mfaces, which reference
  // mcycles, which reference runs of the shared msegments array.
  ByteWriter root;
  root.PutU32(uint32_t(m.NumUnits()));
  ByteWriter units, mfaces, mcycles, msegs;
  uint32_t face_off = 0, cycle_off = 0, mseg_off = 0;
  for (const URegion& u : m.units()) {
    PutInterval(&units, u.interval());
    units.PutU32(face_off);
    units.PutU32(uint32_t(u.faces().size()));
    for (const MFace& fc : u.faces()) {
      mfaces.PutU32(cycle_off);
      mfaces.PutU32(uint32_t(1 + fc.holes.size()));
      auto put_cycle = [&](const MCycle& cyc, bool is_hole) {
        mcycles.PutU32(mseg_off);
        mcycles.PutU32(uint32_t(cyc.size()));
        mcycles.PutU8(is_hole ? 1 : 0);
        for (const MSeg& s : cyc) PutMSeg(&msegs, s);
        mseg_off += uint32_t(cyc.size());
        ++cycle_off;
      };
      put_cycle(fc.outer, false);
      for (const MCycle& h : fc.holes) put_cycle(h, true);
      ++face_off;
    }
  }
  return FlatValue{
      root.Take(),
      {units.Take(), mfaces.Take(), mcycles.Take(), msegs.Take()}};
}

Result<MovingRegion> MovingRegionFromFlat(const FlatView& f) {
  if (f.arrays.size() != 4) return Status::InvalidArgument("mregion arity");
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  ByteReader units(f.arrays[0]);
  ByteReader mfr(f.arrays[1]);
  ByteReader mcr(f.arrays[2]);
  ByteReader msr(f.arrays[3]);
  std::vector<MSeg> all_msegs;
  while (!msr.AtEnd()) {
    Result<MSeg> ms = GetMSeg(&msr);
    if (!ms.ok()) return ms.status();
    all_msegs.push_back(*ms);
  }
  struct CycleRef {
    uint32_t start, count;
    bool is_hole;
  };
  std::vector<CycleRef> all_cycles;
  while (!mcr.AtEnd()) {
    CycleRef c;
    uint8_t hole;
    MODB_RETURN_IF_ERROR(mcr.GetU32(&c.start));
    MODB_RETURN_IF_ERROR(mcr.GetU32(&c.count));
    MODB_RETURN_IF_ERROR(mcr.GetU8(&hole));
    c.is_hole = hole != 0;
    if (std::size_t(c.start) + c.count > all_msegs.size()) {
      return Status::OutOfRange("mseg run out of range");
    }
    all_cycles.push_back(c);
  }
  struct FaceRef {
    uint32_t start, count;
  };
  std::vector<FaceRef> all_faces;
  while (!mfr.AtEnd()) {
    FaceRef fc;
    MODB_RETURN_IF_ERROR(mfr.GetU32(&fc.start));
    MODB_RETURN_IF_ERROR(mfr.GetU32(&fc.count));
    if (std::size_t(fc.start) + fc.count > all_cycles.size()) {
      return Status::OutOfRange("cycle run out of range");
    }
    all_faces.push_back(fc);
  }
  auto build_cycle = [&](const CycleRef& c) {
    return MCycle(all_msegs.begin() + c.start,
                  all_msegs.begin() + c.start + c.count);
  };
  MODB_RETURN_IF_ERROR(CheckArrayCount(n, f.arrays[0].size(),
                                       kIntervalBytes + kSubarrayRefBytes));
  std::vector<URegion> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Result<TimeInterval> iv = GetInterval(&units);
    if (!iv.ok()) return iv.status();
    uint32_t start, count;
    MODB_RETURN_IF_ERROR(units.GetU32(&start));
    MODB_RETURN_IF_ERROR(units.GetU32(&count));
    if (std::size_t(start) + count > all_faces.size()) {
      return Status::OutOfRange("face run out of range");
    }
    std::vector<MFace> faces;
    for (uint32_t k = start; k < start + count; ++k) {
      const FaceRef& fr = all_faces[k];
      MFace face;
      bool first = true;
      for (uint32_t c = fr.start; c < fr.start + fr.count; ++c) {
        const CycleRef& cr = all_cycles[c];
        if (first && cr.is_hole) {
          return Status::InvalidArgument("face starts with a hole cycle");
        }
        if (first) {
          face.outer = build_cycle(cr);
          first = false;
        } else {
          face.holes.push_back(build_cycle(cr));
        }
      }
      faces.push_back(std::move(face));
    }
    out.push_back(URegion::MakeTrusted(*iv, std::move(faces)));
  }
  return MovingRegion::Make(std::move(out));
}

// -- AttributeStore ----------------------------------------------------------

std::string AttributeStore::Put(const FlatValue& value) {
  ByteWriter w;
  w.PutU32(kMagic);
  w.PutU32(uint32_t(value.root.size()));
  w.PutU32(uint32_t(value.arrays.size()));
  w.PutBytes(value.root);
  for (const std::string& a : value.arrays) {
    if (a.size() <= inline_threshold_) {
      w.PutU8(1);  // Inline.
      w.PutU32(uint32_t(a.size()));
      w.PutBytes(a);
    } else {
      w.PutU8(0);  // Paged.
      PageExtent e = store_.Write(a);
      w.PutU32(e.first_page);
      w.PutU32(e.num_pages);
      w.PutU32(e.num_bytes);
    }
  }
  return w.Take();
}

Result<FlatValue> AttributeStore::Get(std::string_view tuple) const {
  ByteReader r(tuple);
  uint32_t magic, root_size, num_arrays;
  MODB_RETURN_IF_ERROR(r.GetU32(&magic));
  if (magic != kMagic) return Status::InvalidArgument("bad magic");
  MODB_RETURN_IF_ERROR(r.GetU32(&root_size));
  MODB_RETURN_IF_ERROR(r.GetU32(&num_arrays));
  FlatValue out;
  MODB_RETURN_IF_ERROR(r.GetBytes(root_size, &out.root));
  for (uint32_t i = 0; i < num_arrays; ++i) {
    uint8_t is_inline;
    MODB_RETURN_IF_ERROR(r.GetU8(&is_inline));
    if (is_inline) {
      uint32_t n;
      MODB_RETURN_IF_ERROR(r.GetU32(&n));
      std::string a;
      MODB_RETURN_IF_ERROR(r.GetBytes(n, &a));
      out.arrays.push_back(std::move(a));
    } else {
      PageExtent e;
      MODB_RETURN_IF_ERROR(r.GetU32(&e.first_page));
      MODB_RETURN_IF_ERROR(r.GetU32(&e.num_pages));
      MODB_RETURN_IF_ERROR(r.GetU32(&e.num_bytes));
      Result<std::string> a = store_.Read(e);
      if (!a.ok()) return a.status();
      out.arrays.push_back(std::move(*a));
    }
  }
  return out;
}

}  // namespace modb
