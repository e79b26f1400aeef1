#include "layers.h"

#include <set>
#include <string>

namespace wallbench {
namespace {

using ros2::telemetry::MetricValue;
using ros2::telemetry::TelemetrySnapshot;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Delta(const TelemetrySnapshot& a, const TelemetrySnapshot& b,
             const std::string& path) {
  return double(b.ValueOr(path, 0)) - double(a.ValueOr(path, 0));
}

/// Mean of the histogram samples recorded between the snapshots, in µs.
double HistMeanUs(const TelemetrySnapshot& a, const TelemetrySnapshot& b,
                  const std::string& path) {
  const MetricValue* before = a.Find(path);
  const MetricValue* after = b.Find(path);
  if (after == nullptr) return 0.0;
  const double count = double(after->count) - (before ? before->count : 0);
  const double sum = after->sum - (before ? before->sum : 0.0);
  return Ratio(sum, count) * 1e6;
}

/// Sum over rpc/op/<op>/<leaf> of the deltas.
double RpcOpSum(const TelemetrySnapshot& a, const TelemetrySnapshot& b,
                const std::string& leaf) {
  double total = 0;
  for (const MetricValue& m : b.metrics) {
    if (m.path.starts_with("rpc/op/") && m.path.ends_with("/" + leaf)) {
      total += Delta(a, b, m.path);
    }
  }
  return total;
}

}  // namespace

LayerSnapshot CaptureLayers(Rig& rig) {
  LayerSnapshot s;
  s.client = rig.client().counters();
  s.dfs = rig.dfs_tree().Snapshot("dfs/");
  ros2::daos::DaosEngine& engine = *rig.cluster().engine();
  s.engine = engine.telemetry().Snapshot();
  const ros2::net::MrCache& cache = rig.client_endpoint().mr_cache();
  s.mr_hits = cache.hits();
  s.mr_misses = cache.misses();
  s.client_traffic = rig.client_endpoint().TotalTraffic();
  for (std::uint32_t i = 0; i < rig.cluster().config().num_ssds; ++i) {
    if (const ros2::storage::NvmeDevice* dev = rig.cluster().device(i)) {
      s.nvme_read += dev->bytes_read();
      s.nvme_written += dev->bytes_written();
    }
  }
  for (std::uint32_t t = 0; t < engine.num_targets(); ++t) {
    const ros2::daos::VosStats& st = engine.target_vos(t)->stats();
    s.scm_bytes += st.bytes_in_scm.load();
    s.nvme_bytes += st.bytes_in_nvme.load();
    s.records += st.scm_records.load() + st.nvme_records.load();
  }
  return s;
}

void AddLayerMetrics(const LayerSnapshot& before, const LayerSnapshot& after,
                     const Runner& runner, const Deployment& deployment,
                     Report& report) {
  const bool traced = runner.trace();
  // Gated set (BENCHMARK.json per_layer): in the JSON line of a traced run.
  auto layer = [&](const char* name, double v, const char* unit) {
    report.Add(name, v, unit, traced);
  };
  auto extra = [&](const std::string& name, double v, const char* unit) {
    report.Add(name, v, unit, false);
  };

  const double ops = double(runner.attempted());
  const double bytes_read = double(runner.bytes_read());
  const double bytes_written = double(runner.bytes_written());
  const double user_bytes = bytes_read + bytes_written;
  const TelemetrySnapshot& e0 = before.engine;
  const TelemetrySnapshot& e1 = after.engine;
  const double rpc_total_us =
      HistMeanUs(e0, e1, "rpc/op/obj_fetch/latency/total");

  if (traced) {
    const SpanLog& sp = runner.spans();
    const double core = sp.MeanUs(Span::kCorePread);
    const double grant = sp.MeanUs(Span::kGrant);
    const double crypto = sp.MeanUs(Span::kCrypto);
    const double dfs = sp.MeanUs(Span::kDfsRead);
    const double daos = sp.MeanUs(Span::kDaosFetch);
    layer("core.pread_us", core, "us");
    // Same estimator as the untraced read_p50_us, for the overhead ratio.
    layer("core.pread_p50_us",
          runner.units().MedianReadQuantileUs(runner.samples(OpClass::kRead),
                                              0.5),
          "us");
    layer("core.self_us", core - grant - dfs - crypto, "us");
    layer("core.control.grant_us", grant, "us");
    // Only encrypted_ckpt runs inline crypto, so this is not in the set
    // every workload reports.
    if (deployment.inline_crypto) extra("core.crypto_us", crypto, "us");
    layer("dfs.read_us", dfs, "us");
    layer("dfs.self_us", dfs - daos, "us");
    layer("daos.fetch_us", daos, "us");
    layer("daos.client_self_us", daos - rpc_total_us, "us");
    layer("vos.fetch_us", sp.MeanUs(Span::kVosFetch), "us");

    const double parts = sp.MeanUs(Span::kCorePreadParts);
    extra("ladder.parts_vs_core_pct", Ratio(parts - core, core) * 100, "%");
    for (Span s : {Span::kCorePwrite, Span::kCorePreadParts,
                   Span::kCorePwriteParts, Span::kStaging, Span::kDfsWrite,
                   Span::kDfsStat, Span::kDfsOpen, Span::kDfsClose,
                   Span::kDfsUnlink, Span::kDfsReaddir, Span::kDaosUpdate}) {
      if (sp.count(s) > 0) {
        extra(std::string(SpanName(s)) + "_us", sp.MeanUs(s), "us");
      }
    }
  }

  // core
  layer("core.control_calls_per_op",
        Ratio(double(after.client.control_calls - before.client.control_calls),
              ops),
        "count/op");
  layer("core.staging_bytes_per_byte",
        Ratio(double(after.client.staging_bytes - before.client.staging_bytes),
              user_bytes),
        "ratio");

  // dfs
  const double hits = Delta(before.dfs, after.dfs, "dfs/lookup_cache/hits");
  const double misses = Delta(before.dfs, after.dfs, "dfs/lookup_cache/misses");
  layer("dfs.lookup_misses_per_op", Ratio(misses, ops), "count/op");
  layer("dfs.chunk_ops_per_op",
        Ratio(Delta(before.dfs, after.dfs, "dfs/io/chunk_fetches") +
                  Delta(before.dfs, after.dfs, "dfs/io/chunk_updates"),
              ops),
        "count/op");
  if (hits + misses > 0) {
    extra("dfs.lookup_hit_ratio", hits / (hits + misses), "ratio");
  }
  extra("dfs.lookup_evictions",
        Delta(before.dfs, after.dfs, "dfs/lookup_cache/evictions"), "count");
  const double pages = Delta(before.dfs, after.dfs, "dfs/readdir/pages");
  if (pages > 0) {
    extra("dfs.readdir_pages_per_call",
          Ratio(pages, double(runner.attempted(OpClass::kReaddir))),
          "count/call");
    extra("dfs.readdir_entries_per_page",
          Delta(before.dfs, after.dfs, "dfs/readdir/entries") / pages,
          "count");
  }

  // rpc
  const double requests = RpcOpSum(e0, e1, "requests");
  layer("rpc.requests_per_op", Ratio(requests, ops), "count/op");
  layer("rpc.errors", RpcOpSum(e0, e1, "errors"), "count");
  std::set<std::string> opcodes;
  for (const MetricValue& m : e1.metrics) {
    if (m.path.starts_with("rpc/op/") && m.path.ends_with("/requests") &&
        Delta(e0, e1, m.path) > 0) {
      opcodes.insert(m.path.substr(7, m.path.size() - 7 - 9));
    }
  }
  opcodes.insert("obj_fetch");  // gated: always reported
  for (const std::string& op : opcodes) {
    const bool gated = op == "obj_fetch";
    for (const char* leaf : {"queue", "exec", "total"}) {
      report.Add("rpc." + op + "." + leaf + "_us",
                 HistMeanUs(e0, e1, "rpc/op/" + op + "/latency/" + leaf), "us",
                 gated && traced);
    }
  }

  // net
  layer("net.doorbells_per_rpc",
        Ratio(Delta(e0, e1, "net/doorbells"), requests), "count/rpc");
  layer("net.drains_per_rpc", Ratio(Delta(e0, e1, "net/drains"), requests),
        "count/rpc");
  const double mr_misses = double(after.mr_misses - before.mr_misses);
  const double mr_hits = double(after.mr_hits - before.mr_hits);
  layer("net.mr_cache_misses_per_op", Ratio(mr_misses, ops), "count/op");
  if (mr_hits + mr_misses > 0) {
    extra("net.mr_cache_hit_ratio", mr_hits / (mr_hits + mr_misses), "ratio");
  }
  layer("net.inline_bytes_per_byte",
        Ratio(double(after.client_traffic.bytes_sent -
                     before.client_traffic.bytes_sent) +
                  Delta(e0, e1, "net/bytes_sent"),
              user_bytes),
        "ratio");
  layer("net.one_sided_bytes_per_byte",
        Ratio(double(after.client_traffic.bytes_one_sided -
                     before.client_traffic.bytes_one_sided) +
                  Delta(e0, e1, "net/bytes_one_sided"),
              user_bytes),
        "ratio");

  // sched
  layer("sched.busy_us_per_op", Ratio(Delta(e0, e1, "sched/busy_ns"), ops) / 1e3,
        "us");
  layer("sched.queue_high_water",
        double(e1.ValueOr("sched/queue_high_water", 0)), "count");

  // vos (over the scm, spdk and storage tiers)
  layer("vos.device_read_amp",
        Ratio(double(after.nvme_read - before.nvme_read), bytes_read), "ratio");
  if (bytes_written > 0) {
    extra("vos.device_write_amp",
          double(after.nvme_written - before.nvme_written) / bytes_written,
          "ratio");
  }
  layer("vos.scm_mib", double(after.scm_bytes) / (1 << 20), "MiB");
  layer("vos.nvme_mib", double(after.nvme_bytes) / (1 << 20), "MiB");
  layer("vos.records", double(after.records), "count");
}

}  // namespace wallbench
