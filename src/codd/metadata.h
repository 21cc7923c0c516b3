// CODD-style metadata capture, matching and scaling (Sections 3, 7.4).
//
// CODD simulates database environments "datalessly" through metadata alone.
// Here it plays two roles: (a) metadata matching — transplanting client
// metadata (row counts, per-column min/max) onto the vendor-side schema so
// both sites choose the same plans, and (b) scale modeling — rewriting
// metadata and CC cardinalities to an arbitrary target size, which is how
// the paper models the exabyte scenario without ever holding the data.

#ifndef HYDRA_CODD_METADATA_H_
#define HYDRA_CODD_METADATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "engine/table.h"
#include "query/constraint.h"

namespace hydra {

struct ColumnStats {
  int64_t min_value = 0;
  int64_t max_value = 0;  // inclusive
  uint64_t num_distinct = 0;
};

struct RelationMetadata {
  std::string name;
  uint64_t row_count = 0;
  std::vector<ColumnStats> columns;  // one per attribute
};

struct DatabaseMetadata {
  std::vector<RelationMetadata> relations;

  // Estimated byte size of the database the metadata describes (8 bytes per
  // value in this all-numeric setting). A double, since a scaled model can
  // pass 2^64 bytes: the exabyte model at factor 1e12 holds ~29 EiB.
  double EstimatedBytes(const Schema& schema) const;
};

// Captures metadata from a materialized database (the client-site catalog
// dump CODD transfers).
DatabaseMetadata CaptureMetadata(const Database& db);

// Metadata matching: applies row counts and data-attribute domains from
// `metadata` onto `schema` (by relation order). Fails on arity mismatch.
Status ApplyMetadata(const DatabaseMetadata& metadata, Schema* schema);

// Scale modeling: multiplies every row count by `factor`, rounding to the
// nearest integer. A product past UINT64_MAX saturates there; it never
// wraps back into the int64 range HydraRegenerator accepts.
DatabaseMetadata ScaleMetadata(const DatabaseMetadata& metadata,
                               double factor);

// Scales the cardinality of every CC by `factor` (the paper's §7.4
// methodology: plans are executed at the base scale and intermediate row
// counts are multiplied up to the target scale). Rounds and saturates as
// ScaleMetadata does.
std::vector<CardinalityConstraint> ScaleConstraints(
    const std::vector<CardinalityConstraint>& ccs, double factor);

}  // namespace hydra

#endif  // HYDRA_CODD_METADATA_H_
