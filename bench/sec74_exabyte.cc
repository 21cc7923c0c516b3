// Section 7.4: scalability to Big Data volumes. CODD models the metadata of
// an exabyte-scale database; AQP row counts from the base instance are
// multiplied by the scale factor; Hydra builds the summary in minutes —
// its cost is independent of the data scale — and the Tuple Generator can
// immediately serve queries against the virtual exabyte database. Past
// factor 1e12 the largest relations outgrow int64 row counts, and
// Regenerate must refuse them with OUT_OF_RANGE, naming the first one.

#include "bench_util.h"
#include "codd/metadata.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"

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

    if (factor == 1e12) {
      // Dynamic generation straight against the virtual database: fetch
      // tuples from the far end of a quadrillion-row relation.
      TupleGenerator gen(result->summary);
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
