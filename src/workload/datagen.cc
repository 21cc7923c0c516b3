#include "workload/datagen.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"

namespace hydra {

namespace {

// Fills `table` (already sized to the relation's rows) with relation `r`'s
// rows, drawing every value from `rng` in row-major order (row by row,
// attribute by attribute): the relation's one stream. `rng` is taken by
// value so that each task draws from a copy on its own stack: every draw
// writes the generator state, and the relations' generators sit side by
// side in one vector, two to a cache line.
void GenerateRelation(const Schema& schema, int r,
                      const DataGenOptions& options, Rng rng, Table* table) {
  const Relation& rel = schema.relation(r);
  const int64_t rows = static_cast<int64_t>(rel.row_count());
  if (rows == 0) return;

  // Per-attribute samplers.
  struct AttrSampler {
    enum Kind { kPk, kFkZipf, kUniform, kZipf, kClustered } kind = kUniform;
    Interval domain;
    std::unique_ptr<ZipfDistribution> zipf;
    int64_t cluster_step = 1;
    int64_t cluster_count = 1;
    Value* column = nullptr;  // the attribute's column in `table`
  };
  std::vector<AttrSampler> samplers(rel.num_attributes());
  int data_seq = 0;
  for (int a = 0; a < rel.num_attributes(); ++a) {
    const Attribute& attr = rel.attribute(a);
    AttrSampler& s = samplers[a];
    s.column = table->MutableColumn(a);
    switch (attr.kind) {
      case AttributeKind::kPrimaryKey:
        s.kind = AttrSampler::kPk;
        break;
      case AttributeKind::kForeignKey:
        // GenerateClientDatabase checked that the target has rows.
        s.kind = AttrSampler::kFkZipf;
        s.zipf = std::make_unique<ZipfDistribution>(
            schema.relation(attr.fk_target).row_count(),
            options.fk_zipf_theta);
        break;
      case AttributeKind::kData: {
        s.domain = attr.domain;
        const int64_t width = s.domain.Count();
        // Rotate distribution families across data attributes so every
        // relation mixes uniform, skewed and clustered columns.
        switch (data_seq % 3) {
          case 0:
            s.kind = AttrSampler::kUniform;
            break;
          case 1:
            s.kind = AttrSampler::kZipf;
            s.zipf = std::make_unique<ZipfDistribution>(
                static_cast<uint64_t>(width), options.attr_zipf_theta);
            break;
          default:
            s.kind = AttrSampler::kClustered;
            s.cluster_count = std::max<int64_t>(1, std::min<int64_t>(
                                                       width, 16));
            s.cluster_step = std::max<int64_t>(1, width / s.cluster_count);
            s.zipf = std::make_unique<ZipfDistribution>(
                static_cast<uint64_t>(s.cluster_count),
                options.attr_zipf_theta);
            break;
        }
        ++data_seq;
        break;
      }
    }
  }

  for (int64_t i = 0; i < rows; ++i) {
    for (AttrSampler& s : samplers) {
      switch (s.kind) {
        case AttrSampler::kPk:
          s.column[i] = i;
          break;
        case AttrSampler::kFkZipf:
          s.column[i] = static_cast<int64_t>(s.zipf->Sample(rng));
          break;
        case AttrSampler::kUniform:
          s.column[i] = rng.NextInt(s.domain.lo, s.domain.hi);
          break;
        case AttrSampler::kZipf:
          s.column[i] =
              s.domain.lo + static_cast<int64_t>(s.zipf->Sample(rng));
          break;
        case AttrSampler::kClustered:
          s.column[i] = std::min<int64_t>(
              s.domain.hi - 1,
              s.domain.lo +
                  static_cast<int64_t>(s.zipf->Sample(rng)) *
                      s.cluster_step);
          break;
      }
    }
  }
}

}  // namespace

StatusOr<Database> GenerateClientDatabase(const Schema& schema,
                                          const DataGenOptions& options) {
  HYDRA_RETURN_IF_ERROR(schema.Validate());
  const int num_relations = schema.num_relations();
  // A row's FK must reference some target row. Checked here, in relation
  // order, so the first offending relation is the one reported.
  for (int r = 0; r < num_relations; ++r) {
    const Relation& rel = schema.relation(r);
    if (rel.row_count() == 0) continue;
    for (int a : rel.ForeignKeyIndices()) {
      const Relation& target = schema.relation(rel.attribute(a).fk_target);
      if (target.row_count() == 0) {
        return Status::InvalidArgument(
            "FK " + rel.name() + "." + rel.attribute(a).name +
            " references " + target.name() + ", which has no rows");
      }
    }
  }

  // Fork every relation's stream up front, in relation order (the seeds a
  // serial loop would hand out), and size every table's columns on this
  // thread, so that their storage comes from this thread's malloc arena
  // rather than the pool workers' (docs/engine.md "Query batches").
  Database db(schema);
  Rng rng(options.seed);
  std::vector<Rng> rngs;
  rngs.reserve(num_relations);
  for (int r = 0; r < num_relations; ++r) {
    rngs.push_back(rng.Fork());
    db.table(r).ResizeRows(schema.relation(r).row_count());
  }

  // One task per relation, largest (rows × attributes) first: the biggest
  // fact table alone bounds the wall time, so it must start at once.
  const auto cells = [&schema](int r) {
    const Relation& rel = schema.relation(r);
    return rel.row_count() * static_cast<uint64_t>(rel.num_attributes());
  };
  std::vector<int> order(num_relations);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return cells(a) > cells(b); });
  ThreadPool pool(std::min(ThreadPool::DefaultThreads(), num_relations));
  ParallelFor(pool, num_relations, [&](int i) {
    const int r = order[i];
    GenerateRelation(schema, r, options, rngs[r], &db.table(r));
  });
  return db;
}

}  // namespace hydra
