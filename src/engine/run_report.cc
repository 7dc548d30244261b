#include "engine/run_report.h"

#include "common/json.h"

namespace gs {
namespace {

const char* SnapshotKindName(MetricSnapshot::Kind kind) {
  switch (kind) {
    case MetricSnapshot::Kind::kCounter: return "counter";
    case MetricSnapshot::Kind::kGauge: return "gauge";
    case MetricSnapshot::Kind::kHistogram: return "histogram";
  }
  return "unknown";
}

void WriteStage(JsonWriter& w, const StageMetrics& s) {
  w.BeginObject();
  w.Key("id").Value(static_cast<std::int64_t>(s.id));
  w.Key("name").Value(s.name);
  w.Key("num_tasks").Value(s.num_tasks);
  w.Key("task_failures").Value(s.task_failures);
  w.Key("submitted").Value(s.submitted);
  w.Key("first_task_started").Value(s.first_task_started);
  w.Key("completed").Value(s.completed);
  w.Key("span").Value(s.span());
  w.EndObject();
}

void WriteJob(JsonWriter& w, const JobMetrics& j) {
  w.BeginObject();
  w.Key("job_id").Value(static_cast<std::int64_t>(j.job_id));
  w.Key("tenant").Value(j.tenant);
  w.Key("submitted").Value(j.submitted);
  w.Key("started").Value(j.started);
  w.Key("queue_delay").Value(j.queue_delay());
  w.Key("completed").Value(j.completed);
  w.Key("jct").Value(j.jct());
  w.Key("cross_dc_bytes").Value(j.cross_dc_bytes);
  w.Key("cross_dc_fetch_bytes").Value(j.cross_dc_fetch_bytes);
  w.Key("cross_dc_push_bytes").Value(j.cross_dc_push_bytes);
  w.Key("cross_dc_centralize_bytes").Value(j.cross_dc_centralize_bytes);
  w.Key("task_failures").Value(j.task_failures);
  w.Key("fetch_failures").Value(j.fetch_failures);
  w.Key("node_crashes").Value(j.node_crashes);
  w.Key("map_resubmissions").Value(j.map_resubmissions);
  w.Key("push_retries").Value(j.push_retries);
  w.Key("push_fallbacks").Value(j.push_fallbacks);
  w.Key("replans").Value(j.replans);
  w.Key("receivers_moved").Value(j.receivers_moved);
  w.Key("adaptive_fallbacks").Value(j.adaptive_fallbacks);
  w.Key("placement_misses").Value(j.placement_misses);
  w.Key("coded_groups").Value(j.coded_groups);
  w.Key("coded_multicast_bytes").Value(j.coded_multicast_bytes);
  w.Key("coded_residual_bytes").Value(j.coded_residual_bytes);
  w.Key("coded_local_bytes").Value(j.coded_local_bytes);
  w.Key("coded_replica_compute_seconds")
      .Value(j.coded_replica_compute_seconds);
  w.Key("stages").BeginArray();
  for (const StageMetrics& s : j.stages) WriteStage(w, s);
  w.EndArray();
  w.EndObject();
}

void WriteMetric(JsonWriter& w, const MetricSnapshot& m) {
  w.BeginObject();
  w.Key("name").Value(m.name);
  w.Key("kind").Value(SnapshotKindName(m.kind));
  switch (m.kind) {
    case MetricSnapshot::Kind::kCounter:
      w.Key("value").Value(m.value);
      break;
    case MetricSnapshot::Kind::kGauge:
      w.Key("value").Value(m.value);
      w.Key("max").Value(m.max);
      break;
    case MetricSnapshot::Kind::kHistogram:
      w.Key("count").Value(m.count);
      w.Key("sum").Value(m.sum);
      w.Key("bounds").BeginArray();
      for (double b : m.bounds) w.Value(b);
      w.EndArray();
      w.Key("buckets").BeginArray();
      for (std::int64_t c : m.buckets) w.Value(c);
      w.EndArray();
      break;
  }
  w.EndObject();
}

void WriteJobRow(JsonWriter& w, const RunReport::JobRow& r) {
  w.BeginObject();
  w.Key("job_id").Value(static_cast<std::int64_t>(r.job_id));
  w.Key("tenant").Value(r.tenant);
  w.Key("label").Value(r.label);
  w.Key("submitted").Value(r.submitted);
  w.Key("started").Value(r.started);
  w.Key("queue_delay").Value(r.queue_delay());
  w.Key("completed").Value(r.completed);
  w.Key("jct").Value(r.jct());
  w.Key("cross_dc_bytes").Value(r.cross_dc_bytes);
  w.Key("task_failures").Value(r.task_failures);
  w.EndObject();
}

void WriteLink(JsonWriter& w, const RunReport::LinkSeries& l) {
  w.BeginObject();
  w.Key("src_dc").Value(static_cast<std::int64_t>(l.src_dc));
  w.Key("dst_dc").Value(static_cast<std::int64_t>(l.dst_dc));
  w.Key("src").Value(l.src_name);
  w.Key("dst").Value(l.dst_name);
  w.Key("base_rate").Value(l.base_rate);
  w.Key("total_bytes").Value(l.total_bytes);
  w.Key("buckets").BeginArray();
  for (Bytes b : l.buckets) w.Value(b);
  w.EndArray();
  w.EndObject();
}

}  // namespace

std::string RunReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Value(kSchemaVersion);
  w.Key("scheme").Value(scheme);
  w.Key("transport").Value(transport);
  w.Key("adaptive").Value(adaptive);
  w.Key("coded").BeginObject();
  w.Key("enabled").Value(coded);
  w.Key("redundancy_r").Value(coded_redundancy_r);
  w.EndObject();
  w.Key("seed").Value(static_cast<std::uint64_t>(seed));
  w.Key("scale").Value(scale);
  w.Key("label").Value(label);
  w.Key("topology").BeginObject();
  w.Key("num_datacenters").Value(num_datacenters);
  w.Key("num_nodes").Value(num_nodes);
  w.EndObject();
  w.Key("job");
  WriteJob(w, job);
  w.Key("jobs").BeginArray();
  for (const JobRow& r : jobs) WriteJobRow(w, r);
  w.EndArray();
  w.Key("metrics").BeginObject();
  w.Key("enabled").Value(metrics_enabled);
  w.Key("snapshots").BeginArray();
  for (const MetricSnapshot& m : metrics) WriteMetric(w, m);
  w.EndArray();
  w.EndObject();
  w.Key("utilization").BeginObject();
  w.Key("bucket_seconds").Value(utilization_bucket);
  w.Key("links").BeginArray();
  for (const LinkSeries& l : links) WriteLink(w, l);
  w.EndArray();
  w.EndObject();
  w.Key("cost").BeginObject();
  w.Key("cost_usd").Value(cost_usd);
  w.Key("cost_usd_full_scale").Value(cost_usd_full_scale);
  w.Key("egress_cost_usd").Value(egress_cost_usd);
  w.Key("store_cost_usd").Value(store_cost_usd);
  w.EndObject();
  w.Key("trace").BeginObject();
  w.Key("enabled").Value(trace.enabled);
  w.Key("spans").Value(trace.spans);
  w.Key("task_spans").Value(trace.task_spans);
  w.Key("stage_spans").Value(trace.stage_spans);
  w.Key("flow_spans").Value(trace.flow_spans);
  w.Key("phase_spans").Value(trace.phase_spans);
  w.Key("flow_bytes").Value(trace.flow_bytes);
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace gs
