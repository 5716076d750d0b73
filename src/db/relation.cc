#include "db/relation.h"

namespace modb {

const char* AttributeTypeName(AttributeType type) {
  switch (type) {
    case AttributeType::kInt:
      return "int";
    case AttributeType::kReal:
      return "real";
    case AttributeType::kBool:
      return "bool";
    case AttributeType::kString:
      return "string";
    case AttributeType::kPoint:
      return "point";
    case AttributeType::kPoints:
      return "points";
    case AttributeType::kLine:
      return "line";
    case AttributeType::kRegion:
      return "region";
    case AttributeType::kPeriods:
      return "periods";
    case AttributeType::kMovingBool:
      return "mbool";
    case AttributeType::kMovingInt:
      return "mint";
    case AttributeType::kMovingString:
      return "mstring";
    case AttributeType::kMovingReal:
      return "mreal";
    case AttributeType::kMovingPoint:
      return "mpoint";
    case AttributeType::kMovingPoints:
      return "mpoints";
    case AttributeType::kMovingLine:
      return "mline";
    case AttributeType::kMovingRegion:
      return "mregion";
  }
  return "unknown";
}

AttributeType TypeOf(const AttributeValue& value) {
  return static_cast<AttributeType>(value.index());
}

int Schema::IndexOf(const std::string& name) const {
  for (std::size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return int(i);
  }
  return -1;
}

Schema Schema::Concat(const Schema& a, const std::string& prefix_a,
                      const Schema& b, const std::string& prefix_b) {
  std::vector<AttributeDef> defs;
  defs.reserve(a.NumAttributes() + b.NumAttributes());
  for (const AttributeDef& d : a.attributes()) {
    defs.push_back({prefix_a + d.name, d.type});
  }
  for (const AttributeDef& d : b.attributes()) {
    defs.push_back({prefix_b + d.name, d.type});
  }
  return Schema(std::move(defs));
}

Status Relation::Insert(Tuple tuple) {
  if (tuple.size() != schema_.NumAttributes()) {
    return Status::InvalidArgument("tuple arity mismatch for relation " +
                                   name_);
  }
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (TypeOf(tuple[i]) != schema_.attribute(i).type) {
      return Status::InvalidArgument(
          "attribute " + schema_.attribute(i).name + " expects type " +
          AttributeTypeName(schema_.attribute(i).type) + " but got " +
          AttributeTypeName(TypeOf(tuple[i])));
    }
  }
  tuples_.push_back(std::move(tuple));
  return Status::OK();
}

}  // namespace modb
