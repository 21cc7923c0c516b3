#include "engine/executor.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"

namespace hydra {

namespace {

// Builds the CC column space + remapped predicate for the subset of query
// tables in `table_ids` (indices into query.tables).
void BuildCcPredicate(const Schema& schema, const Query& query,
                      const std::vector<int>& table_ids,
                      std::vector<AttrRef>* columns, DnfPredicate* predicate) {
  columns->clear();
  *predicate = DnfPredicate::True();
  for (int t : table_ids) {
    const QueryTable& qt = query.tables[t];
    if (qt.filter.IsTrue()) continue;
    // Map this table's filter columns (attribute indices) into the CC space.
    const Relation& rel = schema.relation(qt.relation);
    std::vector<int> mapping(rel.num_attributes(), -1);
    for (int attr : qt.filter.Columns()) {
      AttrRef ref{qt.relation, attr};
      int idx = -1;
      for (size_t i = 0; i < columns->size(); ++i) {
        if ((*columns)[i] == ref) {
          idx = static_cast<int>(i);
          break;
        }
      }
      if (idx < 0) {
        idx = static_cast<int>(columns->size());
        columns->push_back(ref);
      }
      mapping[attr] = idx;
    }
    *predicate = predicate->And(qt.filter.RemapColumns(mapping));
  }
}

// Probe-chain scratch whose resize leaves new elements unwritten: each one
// is written before it is read.
template <typename T>
using Scratch = std::vector<T, internal::DefaultInitAllocator<T>>;

// The probe chain of one query: the plan each root morsel runs.
struct ProbeChain {
  // Join j probes indexes[j + 1] with the key column `probe_col` of an
  // already-joined table: a root attribute, or a column of that table's
  // block.
  struct Step {
    int probe_table = 0;
    int probe_col = 0;
  };

  const TableSource* source = nullptr;
  int root_relation = -1;
  int root_width = 0;
  // The root columns the chain reads: its filter's and its probe keys.
  std::vector<int> root_live;
  kernels::BlockPredicate root_filter;
  std::vector<Step> steps;  // steps[j] joins table j + 1
  // last_probe[t]: the last step probing with table t's rows (-1: none). A
  // step writes out the row ids of only the tables a later step probes.
  std::vector<int> last_probe;
  // Per table, indexed like query.tables; [0] unused (the root is read
  // from the morsel's own block).
  const RowBlock* blocks = nullptr;
  const JoinIndex* indexes = nullptr;

  // Fills root ranks [begin, end), asking for run heads when `heads`,
  // selects them through the root filter, and probes steps 0..J-1 in
  // order, carrying row ids rather than values. Adds the rows passing the
  // root filter to counts[0] and the rows after join j to counts[1 + j].
  // Over a root block of run heads, each partial row stands for its head's
  // weight in root rows. Returns whether the block was run heads.
  bool Run(int64_t begin, int64_t end, bool heads, uint64_t* counts) const;
};

bool ProbeChain::Run(int64_t begin, int64_t end, bool heads,
                     uint64_t* counts) const {
  // Per-thread scratch, reused across morsels and queries. ids[t] holds,
  // per row of the partial join, its row in table t (root: in `root`); over
  // run heads weights[i] is the number of root rows partial row i stands
  // for.
  thread_local RowBlock root;
  thread_local SelVector sel;
  thread_local std::vector<Scratch<uint32_t>> ids, next_ids;
  thread_local std::vector<uint64_t> weights, next_weights;
  thread_local Scratch<Value> keys;
  thread_local Scratch<JoinIndex::Span> spans;
  thread_local Scratch<uint32_t> from;  // output row -> input row

  const size_t num_tables = steps.size() + 1;
  if (ids.size() < num_tables) {
    ids.resize(num_tables);
    next_ids.resize(num_tables);
  }
  root.Reset(root_width);
  root.SetLiveColumns(root_live);
  if (heads) root.RequestHeads();
  source->FillBlockRange(root_relation, begin, end, &root);
  // A run's rows agree on every column the chain reads, so its head,
  // weighted by the run's length, joins for them all.
  const bool per_run = root.weighted();
  Scratch<uint32_t>& root_ids = ids[0];
  if (root_filter.is_true()) {
    root_ids.resize(static_cast<size_t>(root.num_rows()));
    std::iota(root_ids.begin(), root_ids.end(), 0u);
  } else {
    root_filter.SelectRange(root, 0, root.num_rows(), &sel);
    root_ids.assign(sel.begin(), sel.end());
  }
  int64_t n = static_cast<int64_t>(root_ids.size());
  if (per_run) {
    weights.resize(static_cast<size_t>(n));
    const uint64_t* root_weights = root.weights();
    uint64_t kept = 0;
    for (int64_t i = 0; i < n; ++i) {
      weights[i] = root_weights[root_ids[i]];
      kept += weights[i];
    }
    counts[0] += kept;
  } else {
    counts[0] += static_cast<uint64_t>(n);
  }

  const int num_steps = static_cast<int>(steps.size());
  for (int j = 0; j < num_steps && n > 0; ++j) {
    const Step& step = steps[j];
    const RowBlock* probe_block =
        step.probe_table == 0 ? &root : &blocks[step.probe_table];
    const Value* key_col = probe_block->Column(step.probe_col);
    const uint32_t* probe_rows = ids[step.probe_table].data();
    keys.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) keys[i] = key_col[probe_rows[i]];
    spans.resize(static_cast<size_t>(n));
    const JoinIndex& index = indexes[j + 1];
    index.Probe(keys.data(), n, spans.data());
    int64_t out_n = 0;
    for (int64_t i = 0; i < n; ++i) out_n += spans[i].len;
    if (per_run) {
      uint64_t count = 0;
      for (int64_t i = 0; i < n; ++i) {
        count += uint64_t{spans[i].len} * weights[i];
      }
      counts[1 + j] += count;
    } else {
      counts[1 + j] += static_cast<uint64_t>(out_n);
    }
    if (j + 1 == num_steps) break;  // the last join only counts

    // Expand: output row o joins input row from[o] with the new table's
    // build row; spans longer than one (an FK-side join) repeat the input,
    // its row ids and its weight.
    const int new_table = j + 1;
    const bool keep_new = last_probe[new_table] > j;
    from.resize(static_cast<size_t>(out_n));
    Scratch<uint32_t>& new_ids = next_ids[new_table];
    if (keep_new) new_ids.resize(static_cast<size_t>(out_n));
    const uint32_t* row_ids = index.row_ids();
    int64_t o = 0;
    for (int64_t i = 0; i < n; ++i) {
      const JoinIndex::Span span = spans[i];
      for (uint32_t e = 0; e < span.len; ++e, ++o) {
        from[o] = static_cast<uint32_t>(i);
        if (keep_new) new_ids[o] = row_ids[span.begin + e];
      }
    }
    for (int t = 0; t <= new_table; ++t) {
      if (last_probe[t] <= j) continue;
      if (t != new_table) {
        Scratch<uint32_t>& out = next_ids[t];
        out.resize(static_cast<size_t>(out_n));
        const uint32_t* in = ids[t].data();
        for (int64_t r = 0; r < out_n; ++r) out[r] = in[from[r]];
      }
      std::swap(ids[t], next_ids[t]);
    }
    if (per_run) {
      next_weights.resize(static_cast<size_t>(out_n));
      for (int64_t r = 0; r < out_n; ++r) next_weights[r] = weights[from[r]];
      std::swap(weights, next_weights);
    }
    n = out_n;
  }
  return per_run;
}

}  // namespace

Status Executor::Check(const Query& query) const {
  HYDRA_RETURN_IF_ERROR(query.Validate(schema_));
  std::unordered_set<int> rels;
  for (const QueryTable& qt : query.tables) {
    if (!rels.insert(qt.relation).second) {
      return Status::Unimplemented("self-joins are not supported (query " +
                                   query.name + ")");
    }
  }
  return Status::OK();
}

Executor::Executor(const Schema& schema, ExecOptions options)
    : schema_(schema), options_(options) {
  if (options_.morsel_rows < 1) options_.morsel_rows = 1;
  const int threads = options_.ResolvedThreads();
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

StatusOr<AnnotatedQueryPlan> Executor::Execute(
    const Query& query, const TableSource& source,
    const CancelScope* cancel) const {
  HYDRA_RETURN_IF_ERROR(Check(query));
  return Run(query, source, cancel);
}

StatusOr<std::vector<AnnotatedQueryPlan>> Executor::ExecuteAll(
    const std::vector<Query>& queries, const TableSource& source,
    const CancelScope* cancel) const {
  for (const Query& query : queries) {
    HYDRA_RETURN_IF_ERROR(Check(query));
  }
  // The workers claim whole queries (inline without a pool, or for one
  // query); a tripped scope stops the claiming.
  const int64_t n = static_cast<int64_t>(queries.size());
  std::vector<AnnotatedQueryPlan> plans(n);
  std::vector<Status> statuses(n);
  ParallelFor(
      pool_.get(), options_.ResolvedThreads(), n,
      [&](int64_t i) {
        StatusOr<AnnotatedQueryPlan> plan = Run(queries[i], source, cancel);
        statuses[i] = plan.status();
        if (plan.ok()) plans[i] = std::move(plan).value();
      },
      cancel);
  // A tripped scope may have left queries unclaimed.
  if (cancel != nullptr) HYDRA_RETURN_IF_ERROR(cancel->Check());
  for (const Status& status : statuses) HYDRA_RETURN_IF_ERROR(status);
  return plans;
}

StatusOr<AnnotatedQueryPlan> Executor::Run(const Query& query,
                                           const TableSource& source,
                                           const CancelScope* cancel) const {
  const int num_tables = static_cast<int>(query.tables.size());
  const int num_joins = num_tables - 1;  // Validate: one join per table

  ProbeChain chain;
  chain.source = &source;
  chain.root_relation = query.tables[0].relation;
  chain.root_width = schema_.relation(chain.root_relation).num_attributes();
  chain.root_filter = kernels::BlockPredicate(query.tables[0].filter);
  chain.steps.resize(num_joins);
  chain.last_probe.assign(num_tables, -1);
  // Join k adds table k + 1. A PK-side new table is probed with the FK
  // value of an already-joined table (each row matches <= 1 new row); an
  // FK-side new table is probed with an already-joined table's PK value
  // (may expand per duplicate). block_attrs[t] lists the attributes table
  // t's block keeps: its build key first, then those later steps probe.
  std::vector<std::vector<int>> block_attrs(num_tables);
  // heads[t]: table t's scan asks for run heads (docs/engine.md "What a
  // scan reads"). A head holds its run's first rank alone, so a table whose
  // PK its filter or a probe reads is read per row, and so is an FK-side
  // build, which indexes every row; a PK-side build indexes run starts.
  std::vector<char> heads(num_tables, 1);
  const auto pk_of = [&](int t) {
    return schema_.relation(query.tables[t].relation).PrimaryKeyIndex();
  };
  for (int t = 0; t < num_tables; ++t) {
    for (const int c : query.tables[t].filter.Columns()) {
      if (c == pk_of(t)) heads[t] = 0;
    }
  }
  for (int k = 0; k < num_joins; ++k) {
    const JoinEdge& edge = query.joins[k];
    const int new_t = k + 1;
    int probe_t = -1;
    int probe_attr = -1;
    if (edge.pk_table == new_t) {
      const int pk_attr =
          schema_.relation(query.tables[new_t].relation).PrimaryKeyIndex();
      HYDRA_CHECK(pk_attr >= 0);
      HYDRA_CHECK_MSG(edge.fk_table <= k, "join references un-joined table "
                                              << edge.fk_table);
      probe_t = edge.fk_table;
      probe_attr = edge.fk_attr;
      block_attrs[new_t] = {pk_attr};
    } else {
      HYDRA_CHECK(edge.fk_table == new_t);
      HYDRA_CHECK_MSG(edge.pk_table <= k, "join references un-joined table "
                                              << edge.pk_table);
      const int pk_attr =
          schema_.relation(query.tables[edge.pk_table].relation)
              .PrimaryKeyIndex();
      HYDRA_CHECK(pk_attr >= 0);
      probe_t = edge.pk_table;
      probe_attr = pk_attr;
      block_attrs[new_t] = {edge.fk_attr};
      heads[new_t] = 0;
    }
    // The root is probed through its morsel's full-width block, any other
    // table through the column its block keeps for the key.
    int probe_col = probe_attr;
    if (probe_t > 0) {
      std::vector<int>& attrs = block_attrs[probe_t];
      const auto it = std::find(attrs.begin(), attrs.end(), probe_attr);
      probe_col = static_cast<int>(it - attrs.begin());
      if (it == attrs.end()) attrs.push_back(probe_attr);
    }
    chain.steps[k].probe_table = probe_t;
    chain.steps[k].probe_col = probe_col;
    chain.last_probe[probe_t] = k;
    if (probe_attr == pk_of(probe_t)) heads[probe_t] = 0;
    if (probe_t == 0) chain.root_live.push_back(probe_attr);
  }
  // Each scan fills only what the plan reads: the table's filter columns
  // plus its join keys (docs/engine.md "What a scan reads"). ScanFiltered
  // adds the filter's columns itself.
  for (const int c : query.tables[0].filter.Columns()) {
    chain.root_live.push_back(c);
  }

  // Scan + filter each non-root table once on this thread, keep only
  // block_attrs, and index its build key. Buffers are thread_local so a
  // workload loop reuses them across queries instead of first-touching
  // fresh storage per query.
  thread_local std::vector<RowBlock> blocks;
  thread_local std::vector<JoinIndex> indexes;
  if (static_cast<int>(blocks.size()) < num_tables) {
    blocks.resize(num_tables);
    indexes.resize(num_tables);
  }
  chain.blocks = blocks.data();
  chain.indexes = indexes.data();
  std::vector<uint64_t> filtered_rows(num_tables);
  for (int t = 1; t < num_tables; ++t) {
    // A tripped CancelScope unwinds within one fill of the scan (and of
    // the chain below); the partial blocks are simply dropped.
    const int relation = query.tables[t].relation;
    RowBlock& block = blocks[t];
    HYDRA_RETURN_IF_ERROR(ScanFiltered(
        source, relation, schema_.relation(relation).num_attributes(),
        query.tables[t].filter, block_attrs[t], options_.morsel_rows,
        heads[t] != 0, cancel, &block));
    if (block.weighted()) {
      // A filter step counts the rows its kept heads stand for.
      const uint64_t* weights = block.weights();
      filtered_rows[t] =
          std::accumulate(weights, weights + block.num_rows(), uint64_t{0});
      indexes[t].BuildRuns(block.Column(0), weights, block.num_rows());
    } else {
      filtered_rows[t] = static_cast<uint64_t>(block.num_rows());
      const int64_t scanned = static_cast<int64_t>(source.RowCount(relation));
      indexes[t].Build(block.Column(0), block.num_rows(), scanned);
    }
  }

  // The root is never copied: the chain runs over its morsels in rank
  // order, each adding its counts. Morsel sizes are min(morsel_rows, rows
  // left), so no sum wraps even for a morsel size near INT64_MAX. A first
  // morsel that comes back as run heads makes the rest of the root one
  // more fill, as in ScanFiltered.
  const int64_t root_rows =
      static_cast<int64_t>(source.RowCount(chain.root_relation));
  std::vector<uint64_t> counts(1 + num_joins, 0);
  bool weighted = false;
  for (int64_t begin = 0; begin < root_rows;) {
    if (cancel != nullptr) HYDRA_RETURN_IF_ERROR(cancel->Check());
    const int64_t end =
        weighted ? root_rows
                 : begin + std::min(options_.morsel_rows, root_rows - begin);
    const bool got_heads = chain.Run(
        begin, end, heads[0] != 0 && (begin == 0 || weighted), counts.data());
    if (begin == 0) weighted = got_heads;
    begin = end;
  }
  filtered_rows[0] = counts[0];

  AnnotatedQueryPlan aqp;
  aqp.query_name = query.name;
  for (int t = 0; t < num_tables; ++t) {
    const QueryTable& qt = query.tables[t];
    if (qt.filter.IsTrue()) continue;
    AqpStep step;
    step.label =
        query.name + "/filter(" + schema_.relation(qt.relation).name() + ")";
    step.relations = {qt.relation};
    BuildCcPredicate(schema_, query, {t}, &step.columns, &step.predicate);
    step.cardinality = filtered_rows[t];
    aqp.steps.push_back(std::move(step));
  }
  std::vector<int> joined_tables = {0};  // indices into query.tables
  for (int j = 0; j < num_joins; ++j) {
    joined_tables.push_back(j + 1);
    AqpStep step;
    step.label = query.name + "/join" + std::to_string(j);
    std::vector<int> sorted_tables = joined_tables;
    std::sort(sorted_tables.begin(), sorted_tables.end());
    for (int t : sorted_tables) {
      step.relations.push_back(query.tables[t].relation);
    }
    for (int k = 0; k <= j; ++k) {
      const JoinEdge& e = query.joins[k];
      CcJoin cj;
      cj.fk_relation = query.tables[e.fk_table].relation;
      cj.fk_attr = e.fk_attr;
      cj.pk_relation = query.tables[e.pk_table].relation;
      step.joins.push_back(cj);
    }
    BuildCcPredicate(schema_, query, sorted_tables, &step.columns,
                     &step.predicate);
    step.cardinality = counts[1 + j];
    aqp.steps.push_back(std::move(step));
  }
  return aqp;
}

std::vector<CardinalityConstraint> AqpToConstraints(
    const AnnotatedQueryPlan& aqp) {
  std::vector<CardinalityConstraint> ccs;
  ccs.reserve(aqp.steps.size());
  for (const AqpStep& step : aqp.steps) {
    CardinalityConstraint cc;
    cc.relations = step.relations;
    cc.joins = step.joins;
    cc.columns = step.columns;
    cc.predicate = step.predicate;
    cc.cardinality = step.cardinality;
    cc.label = step.label;
    ccs.push_back(std::move(cc));
  }
  return ccs;
}

CardinalityConstraint RelationSizeConstraint(int relation, uint64_t count,
                                             const std::string& label) {
  CardinalityConstraint cc;
  cc.relations = {relation};
  cc.predicate = DnfPredicate::True();
  cc.cardinality = count;
  cc.label = label;
  return cc;
}

}  // namespace hydra
