#include "obs/exec_stats.h"

#include <utility>

#include "obs/json.h"

namespace modb {
namespace obs {

void ExecStats::MergeCountersFrom(const ExecStats& other) {
  tuples_in += other.tuples_in;
  tuples_out += other.tuples_out;
  predicate_evals += other.predicate_evals;
  predicate_intervals += other.predicate_intervals;
  predicate_fallbacks += other.predicate_fallbacks;
  index_candidates += other.index_candidates;
  index_hits += other.index_hits;
  index_builds += other.index_builds;
  units_scanned += other.units_scanned;
  workers += other.workers;
  morsels += other.morsels;
  materializations += other.materializations;
}

namespace {

JsonValue ToJsonValue(const ExecStats& s) {
  JsonValue obj = JsonValue::Object();
  obj.Set("op", JsonValue::Str(s.op));
  auto set_if = [&obj](const char* key, std::uint64_t v) {
    if (v) obj.Set(key, JsonValue::Int(v));
  };
  set_if("tuples_in", s.tuples_in);
  set_if("tuples_out", s.tuples_out);
  set_if("predicate_evals", s.predicate_evals);
  set_if("predicate_intervals", s.predicate_intervals);
  set_if("predicate_fallbacks", s.predicate_fallbacks);
  set_if("index_candidates", s.index_candidates);
  set_if("index_hits", s.index_hits);
  set_if("index_builds", s.index_builds);
  set_if("units_scanned", s.units_scanned);
  set_if("workers", s.workers);
  set_if("morsels", s.morsels);
  set_if("materializations", s.materializations);
  set_if("wall_ns", s.wall_ns);
  if (!s.children.empty()) {
    JsonValue children = JsonValue::Array();
    for (const ExecStats& child : s.children) {
      children.Append(ToJsonValue(child));
    }
    obj.Set("children", std::move(children));
  }
  return obj;
}

Result<ExecStats> FromJsonValue(const JsonValue& v) {
  if (v.kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("ExecStats node must be a JSON object");
  }
  ExecStats out;
  for (const auto& [key, val] : v.members()) {
    if (key == "op") {
      if (val.kind() != JsonValue::Kind::kString) {
        return Status::InvalidArgument("ExecStats.op must be a string");
      }
      out.op = val.string_value();
    } else if (key == "children") {
      if (val.kind() != JsonValue::Kind::kArray) {
        return Status::InvalidArgument("ExecStats.children must be an array");
      }
      for (const JsonValue& child : val.items()) {
        Result<ExecStats> c = FromJsonValue(child);
        if (!c.ok()) return c.status();
        out.children.push_back(std::move(*c));
      }
    } else {
      if (val.kind() != JsonValue::Kind::kNumber) {
        return Status::InvalidArgument("ExecStats." + key +
                                       " must be a number");
      }
      std::uint64_t n = val.uint_value();
      if (key == "tuples_in") out.tuples_in = n;
      else if (key == "tuples_out") out.tuples_out = n;
      else if (key == "predicate_evals") out.predicate_evals = n;
      else if (key == "predicate_intervals") out.predicate_intervals = n;
      else if (key == "predicate_fallbacks") out.predicate_fallbacks = n;
      else if (key == "index_candidates") out.index_candidates = n;
      else if (key == "index_hits") out.index_hits = n;
      else if (key == "index_builds") out.index_builds = n;
      else if (key == "units_scanned") out.units_scanned = n;
      else if (key == "workers") out.workers = n;
      else if (key == "morsels") out.morsels = n;
      else if (key == "materializations") out.materializations = n;
      else if (key == "wall_ns") out.wall_ns = n;
      else return Status::InvalidArgument("unknown ExecStats field: " + key);
    }
  }
  return out;
}

}  // namespace

std::string ExecStats::ToJson() const { return ToJsonValue(*this).Write(); }

Result<ExecStats> ExecStats::FromJson(const std::string& json) {
  Result<JsonValue> v = JsonValue::Parse(json);
  if (!v.ok()) return v.status();
  return FromJsonValue(*v);
}

}  // namespace obs
}  // namespace modb
