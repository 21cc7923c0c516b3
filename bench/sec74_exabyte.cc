// Section 7.4: scalability to Big Data volumes. CODD models the metadata of
// an exabyte-scale database; AQP row counts from the base instance are
// multiplied by the scale factor; Hydra builds the summary in minutes —
// its cost is independent of the data scale — and the Tuple Generator can
// immediately serve queries against the virtual exabyte database. At every
// factor the client's queries re-run over the generator: each scan reads
// run heads in at most two fills, so the query step costs the same at any
// volume, and every count is compared with its scaled CC. Past factor 1e12
// the largest relations outgrow int64 row counts, and Regenerate must
// refuse them with OUT_OF_RANGE, naming the first one.

#include <ctime>
#include <map>

#include "bench_util.h"
#include "codd/metadata.h"
#include "common/metrics.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"

namespace {

// The largest |vendor - scaled CC| the re-run queries may read, in rows, at
// any factor. The Section 5.3 referential repair adds a few count-1 tuples
// whatever the factor, and they are the error here.
constexpr uint64_t kMaxCcErrorRows = 8;

}  // namespace

int main() {
  using namespace hydra;
  using namespace hydra::bench;

  PrintHeader("Section 7.4 — Scalability to Big Data Volumes (exabyte model)",
              "summary for the exabyte scenario generated in < 2 min; "
              "construction time independent of data scale");

  const ClientSite site =
      BuildTpcdsSite(/*scale_factor=*/4.0, TpcdsWorkloadKind::kSimple, 80);

  TextTable table({"scale factor", "modeled size", "summary time",
                   "summary bytes", "total rows"});
  TextTable queries({"scale factor", "query CPU", "fills", "exact CCs",
                     "max |vendor - CC|"});
  // Every scan of the re-run queries: one per query table.
  uint64_t scans = 0;
  for (const Query& query : site.queries) scans += query.tables.size();
  const Histogram* fills = MetricRegistry::FindHistogram("gen/fill_us");
  HYDRA_CHECK(fills != nullptr);
  uint64_t base_bytes = 0;  // the factor-1 summary's size
  for (const double factor : {1.0, 1e3, 1e6, 1e9, 1e12}) {
    // CODD: scale the metadata and the AQP cardinalities.
    Schema scaled_schema = site.schema;
    DatabaseMetadata md = CaptureMetadata(site.database);
    const DatabaseMetadata scaled_md = ScaleMetadata(md, factor);
    HYDRA_CHECK_OK(ApplyMetadata(scaled_md, &scaled_schema));
    const auto scaled_ccs = ScaleConstraints(site.ccs, factor);

    HydraRegenerator hydra(scaled_schema);
    Timer timer;
    auto result = hydra.Regenerate(scaled_ccs);
    HYDRA_CHECK_MSG(result.ok(), result.status().ToString());
    const double seconds = timer.Seconds();
    // The summary must not grow with the modeled volume.
    const uint64_t bytes = result->summary.ByteSize();
    if (factor == 1.0) base_bytes = bytes;
    HYDRA_CHECK_MSG(bytes == base_bytes,
                    "summary grew at factor " << factor << ": " << bytes);

    uint64_t total_rows = 0;
    for (const auto& rs : result->summary.relations) {
      total_rows += static_cast<uint64_t>(rs.TotalCount());
    }
    table.AddRow({TextTable::Cell(factor, 0),
                  FormatBytes(scaled_md.EstimatedBytes(scaled_schema)),
                  FormatDuration(seconds),
                  FormatBytes(result->summary.ByteSize()),
                  FormatCount(total_rows)});

    // The client's queries over the virtual database, each count against
    // its scaled CC.
    const TupleGenerator gen(result->summary);
    const uint64_t fills_before = fills->count();
    const std::clock_t cpu_before = std::clock();
    auto report = MeasureVolumetricSimilarity(site, gen);
    const double cpu =
        static_cast<double>(std::clock() - cpu_before) / CLOCKS_PER_SEC;
    HYDRA_CHECK_MSG(report.ok(), report.status().ToString());
    const uint64_t query_fills = fills->count() - fills_before;
    HYDRA_CHECK_MSG(query_fills <= 2 * scans,
                    "factor " << factor << ": " << query_fills << " fills for "
                              << scans << " scans");
    std::map<std::string, uint64_t> scaled_cc;
    for (const CardinalityConstraint& cc : scaled_ccs) {
      scaled_cc[cc.label] = cc.cardinality;
    }
    int exact = 0;
    uint64_t max_error = 0;
    for (const SimilarityEntry& entry : report->entries) {
      const auto it = scaled_cc.find(entry.label);
      HYDRA_CHECK_MSG(it != scaled_cc.end(), "no CC for " << entry.label);
      const uint64_t got = entry.vendor_cardinality;
      const uint64_t error = got > it->second ? got - it->second
                                              : it->second - got;
      if (error == 0) ++exact;
      max_error = std::max(max_error, error);
    }
    HYDRA_CHECK_MSG(max_error <= kMaxCcErrorRows,
                    "factor " << factor << ": a count is " << max_error
                              << " rows from its scaled CC");
    queries.AddRow({TextTable::Cell(factor, 0), FormatDuration(cpu),
                    FormatCount(query_fills),
                    std::to_string(exact) + "/" +
                        std::to_string(report->entries.size()),
                    FormatCount(max_error)});

    if (factor == 1e12) {
      // Dynamic generation straight against the virtual database: fetch
      // tuples from the far end of a quadrillion-row relation.
      const int ss = scaled_schema.RelationIndex("store_sales");
      Row row;
      Timer probe_timer;
      const int64_t n = static_cast<int64_t>(gen.RowCount(ss));
      for (int64_t i = 1; i <= 1000; ++i) {
        gen.GetTuple(ss, n - i, &row);
      }
      std::printf(
          "probe: 1000 random-access tuples from the tail of a %s-row\n"
          "store_sales generated in %s\n\n",
          FormatCount(static_cast<uint64_t>(n)).c_str(),
          FormatDuration(probe_timer.Seconds()).c_str());
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Shape check vs paper: summary construction time and size are flat\n"
      "across 12 orders of magnitude of modeled data volume.\n\n");
  std::printf(
      "The %zu client queries re-run over the generator (%llu scans, at most\n"
      "two fills each; errors at most %llu rows):\n%s\n",
      site.queries.size(), static_cast<unsigned long long>(scans),
      static_cast<unsigned long long>(kMaxCcErrorRows),
      queries.Render().c_str());

  // Past INT64_MAX rows: the scaled counts saturate instead of wrapping,
  // and Regenerate refuses them before building any view.
  TextTable over({"scale factor", "Regenerate"});
  for (const double factor : {1e14, 1e15, 1e16}) {
    Schema scaled_schema = site.schema;
    const DatabaseMetadata scaled_md =
        ScaleMetadata(CaptureMetadata(site.database), factor);
    HYDRA_CHECK_OK(ApplyMetadata(scaled_md, &scaled_schema));
    const HydraRegenerator hydra(scaled_schema);
    auto result = hydra.Regenerate(ScaleConstraints(site.ccs, factor));
    HYDRA_CHECK_MSG(result.status().code() == StatusCode::kOutOfRange,
                    "factor " << factor << ": " << result.status().ToString());
    over.AddRow({TextTable::Cell(factor, 0), result.status().ToString()});
  }
  std::printf("%s\n", over.Render().c_str());
  return 0;
}
