// Synthetic *client* database generator.
//
// The paper evaluates against real TPC-DS/IMDB installations; here the client
// site itself is simulated (see DESIGN.md §3). Data is generated with skewed
// value and reference distributions (Zipf) so that filters and joins produce
// the wide cardinality spread of Figures 9/16.

#ifndef HYDRA_WORKLOAD_DATAGEN_H_
#define HYDRA_WORKLOAD_DATAGEN_H_

#include <cstdint>

#include "catalog/schema.h"
#include "common/status.h"
#include "engine/table.h"

namespace hydra {

struct DataGenOptions {
  uint64_t seed = 7;
  // Skew of foreign-key reference popularity.
  double fk_zipf_theta = 0.8;
  // Skew of (every other) data attribute's value distribution.
  double attr_zipf_theta = 0.7;
};

// Generates one table per relation: PKs are 0..row_count-1, FKs are
// Zipf-skewed references into the target relation, and data attributes
// alternate between uniform, Zipf-skewed and clustered distributions over
// their declared domains.
//
// Relations generate in parallel, one task per relation on all hardware
// threads. Each relation draws its rows from its own RNG stream, forked
// from `seed` in relation order, so the database is byte-identical to a
// serial loop over the relations. kInvalidArgument, naming the relation,
// the FK attribute and the target, when a relation with rows has an FK
// into a relation without any.
StatusOr<Database> GenerateClientDatabase(const Schema& schema,
                                          const DataGenOptions& options = {});

}  // namespace hydra

#endif  // HYDRA_WORKLOAD_DATAGEN_H_
