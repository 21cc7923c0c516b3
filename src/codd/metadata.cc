#include "codd/metadata.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>

#include "common/logging.h"

namespace hydra {

namespace {

// count * factor rounded to the nearest integer. std::llround covers only
// products below 2^63; at or above it the product (an integer there, as is
// every double past 2^53) is converted directly and saturates at
// UINT64_MAX, so a count past INT64_MAX stays past it instead of wrapping.
uint64_t ScaleCount(uint64_t count, double factor) {
  const double scaled = static_cast<double>(count) * factor;
  if (scaled < 0x1p63) return static_cast<uint64_t>(std::llround(scaled));
  if (scaled >= 0x1p64) return UINT64_MAX;
  return static_cast<uint64_t>(scaled);
}

}  // namespace

double DatabaseMetadata::EstimatedBytes(const Schema& schema) const {
  double bytes = 0;
  for (int r = 0;
       r < std::min<int>(schema.num_relations(),
                         static_cast<int>(relations.size()));
       ++r) {
    bytes += static_cast<double>(relations[r].row_count) *
             static_cast<double>(schema.relation(r).num_attributes() *
                                 sizeof(Value));
  }
  return bytes;
}

DatabaseMetadata CaptureMetadata(const Database& db) {
  DatabaseMetadata md;
  const Schema& schema = db.schema();
  md.relations.resize(schema.num_relations());
  for (int r = 0; r < schema.num_relations(); ++r) {
    const Relation& rel = schema.relation(r);
    const Table& table = db.table(r);
    RelationMetadata& rm = md.relations[r];
    rm.name = rel.name();
    rm.row_count = table.num_rows();
    rm.columns.resize(rel.num_attributes());
    for (int a = 0; a < rel.num_attributes(); ++a) {
      ColumnStats& cs = rm.columns[a];
      if (table.num_rows() == 0) continue;
      cs.min_value = table.At(0, a);
      cs.max_value = table.At(0, a);
      std::unordered_set<Value> distinct;
      for (uint64_t i = 0; i < table.num_rows(); ++i) {
        const Value v = table.At(i, a);
        cs.min_value = std::min(cs.min_value, v);
        cs.max_value = std::max(cs.max_value, v);
        distinct.insert(v);
      }
      cs.num_distinct = distinct.size();
    }
  }
  return md;
}

Status ApplyMetadata(const DatabaseMetadata& metadata, Schema* schema) {
  if (static_cast<int>(metadata.relations.size()) !=
      schema->num_relations()) {
    return Status::InvalidArgument("metadata relation count mismatch");
  }
  for (int r = 0; r < schema->num_relations(); ++r) {
    const RelationMetadata& rm = metadata.relations[r];
    Relation& rel = schema->mutable_relation(r);
    if (static_cast<int>(rm.columns.size()) != rel.num_attributes()) {
      return Status::InvalidArgument("metadata column count mismatch for " +
                                     rel.name());
    }
    rel.set_row_count(rm.row_count);
    for (int a = 0; a < rel.num_attributes(); ++a) {
      Attribute& attr = rel.mutable_attribute(a);
      if (attr.kind == AttributeKind::kData && rm.row_count > 0) {
        attr.domain =
            Interval(rm.columns[a].min_value, rm.columns[a].max_value + 1);
      }
    }
  }
  return Status::OK();
}

DatabaseMetadata ScaleMetadata(const DatabaseMetadata& metadata,
                               double factor) {
  HYDRA_CHECK(factor > 0);
  DatabaseMetadata scaled = metadata;
  for (RelationMetadata& rm : scaled.relations) {
    rm.row_count = ScaleCount(rm.row_count, factor);
  }
  return scaled;
}

std::vector<CardinalityConstraint> ScaleConstraints(
    const std::vector<CardinalityConstraint>& ccs, double factor) {
  HYDRA_CHECK(factor > 0);
  std::vector<CardinalityConstraint> scaled = ccs;
  for (CardinalityConstraint& cc : scaled) {
    cc.cardinality = ScaleCount(cc.cardinality, factor);
  }
  return scaled;
}

}  // namespace hydra
