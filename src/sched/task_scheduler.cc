#include "sched/task_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace gs {

TaskScheduler::TaskScheduler(Simulator& sim, const Topology& topo,
                             TaskSchedulerConfig config,
                             MetricsRegistry* metrics)
    : sim_(sim),
      topo_(topo),
      config_(config),
      free_(topo.num_nodes(), 0),
      up_(topo.num_nodes(), true),
      weight_(1, 1.0),
      busy_(1, 0) {
  for (NodeIndex n = 0; n < topo_.num_nodes(); ++n) {
    free_[n] = topo_.node(n).worker ? topo_.node(n).cores : 0;
  }
  if (metrics != nullptr) {
    m_submitted_ = &metrics->counter("sched.tasks_submitted");
    m_assigned_ = &metrics->counter("sched.tasks_assigned");
    m_queue_depth_ = &metrics->gauge("sched.queue_depth");
    // 10ms .. ~160s in x4 steps; the locality wait (6s) sits mid-range.
    m_queue_wait_ = &metrics->histogram("sched.queue_wait_s",
                                        ExponentialBounds(0.01, 4, 8));
  }
}

void TaskScheduler::Submit(TaskRequest request) {
  GS_CHECK(request.on_assigned != nullptr);
  EnsureTenant(request.tenant);
  for (NodeIndex n : request.preferred) {
    GS_CHECK_MSG(n >= 0 && n < topo_.num_nodes(), "bad preferred node " << n);
  }
  Pending pending;
  pending.submitted_at = sim_.Now();
  // The spill deadline is computed ONCE and the wake-up is scheduled for
  // that same instant, so the eligibility comparison in TryAssign sees the
  // identical double when the wake fires. Re-deriving `now + wait` at
  // check time can land one ulp short of the scheduled event and leave the
  // task queued forever if no later event pumps the scheduler.
  pending.spill_at = sim_.Now() + config_.locality_wait;
  const bool has_prefs = !request.preferred.empty();
  pending.request = std::move(request);
  if (has_prefs && config_.locality_wait > 0 &&
      (pending.request.policy == PlacementPolicy::kAnyAfterWait ||
       pending.request.policy == PlacementPolicy::kDcOnly)) {
    // Wake the scheduler when this task becomes eligible for ANY placement
    // (for kDcOnly that only ever applies if its datacenters lose every
    // worker; the event is cancelled on assignment either way).
    pending.wait_expiry =
        sim_.Schedule(config_.locality_wait, [this] { Pump(); });
  }
  queue_.push_back(std::move(pending));
  if (m_submitted_ != nullptr) {
    m_submitted_->Add(1);
    m_queue_depth_->Set(static_cast<std::int64_t>(queue_.size()));
  }
  Pump();
}

bool TaskScheduler::UpdatePreferences(TaskId id,
                                      std::vector<NodeIndex> preferred,
                                      PlacementPolicy policy) {
  for (NodeIndex n : preferred) {
    GS_CHECK_MSG(n >= 0 && n < topo_.num_nodes(), "bad preferred node " << n);
  }
  for (Pending& pending : queue_) {
    if (pending.request.id != id) continue;
    pending.request.preferred = std::move(preferred);
    pending.request.policy = policy;
    // spill_at and the wait-expiry event stay as submitted: the task's
    // locality-wait clock started when it entered the queue.
    Pump();
    return true;
  }
  return false;
}

void TaskScheduler::ReleaseSlot(NodeIndex node, int tenant) {
  GS_CHECK(node >= 0 && node < topo_.num_nodes());
  GS_CHECK_MSG(topo_.node(node).worker, "released slot on non-worker");
  EnsureTenant(tenant);
  // The tenant's busy count balances even when the executor died: the
  // grant happened, so the release must be accounted.
  --busy_[tenant];
  GS_CHECK_MSG(busy_[tenant] >= 0, "tenant " << tenant << " over-released");
  if (!up_[node]) return;  // executor crashed: the slot died with it
  ++free_[node];
  GS_CHECK(free_[node] <= topo_.node(node).cores);
  Pump();
}

void TaskScheduler::SetTenantWeight(int tenant, double weight) {
  GS_CHECK_MSG(weight > 0, "tenant weight must be positive");
  EnsureTenant(tenant);
  weight_[tenant] = weight;
  Pump();  // a weight change can reorder which tenant is offered next
}

int TaskScheduler::tenant_busy(int tenant) const {
  GS_CHECK(tenant >= 0);
  if (tenant >= static_cast<int>(busy_.size())) return 0;
  return busy_[tenant];
}

void TaskScheduler::EnsureTenant(int tenant) {
  GS_CHECK_MSG(tenant >= 0, "bad tenant id " << tenant);
  if (tenant >= static_cast<int>(weight_.size())) {
    weight_.resize(static_cast<std::size_t>(tenant) + 1, 1.0);
    busy_.resize(static_cast<std::size_t>(tenant) + 1, 0);
  }
}

bool TaskScheduler::SmallerShare(int a, int b) const {
  const double lhs = static_cast<double>(busy_[a]) * weight_[b];
  const double rhs = static_cast<double>(busy_[b]) * weight_[a];
  if (lhs != rhs) return lhs < rhs;
  return a < b;
}

void TaskScheduler::SetNodeDown(NodeIndex node) {
  GS_CHECK(node >= 0 && node < topo_.num_nodes());
  GS_CHECK_MSG(topo_.node(node).worker, "crashed a non-worker");
  up_[node] = false;
  free_[node] = 0;
  // Queued kDcOnly tasks whose last in-DC worker just died may now be
  // eligible to spill anywhere (their locality wait may long have passed).
  Pump();
}

void TaskScheduler::SetNodeUp(NodeIndex node) {
  GS_CHECK(node >= 0 && node < topo_.num_nodes());
  GS_CHECK_MSG(topo_.node(node).worker, "restarted a non-worker");
  if (up_[node]) return;
  up_[node] = true;
  free_[node] = topo_.node(node).cores;
  Pump();
}

bool TaskScheduler::node_up(NodeIndex node) const {
  GS_CHECK(node >= 0 && node < topo_.num_nodes());
  return up_[node];
}

int TaskScheduler::free_slots(NodeIndex node) const {
  GS_CHECK(node >= 0 && node < topo_.num_nodes());
  return free_[node];
}

int TaskScheduler::busy_slots_in(DcIndex dc) const {
  int busy = 0;
  for (NodeIndex n : topo_.nodes_in(dc)) {
    if (topo_.node(n).worker && up_[n]) busy += topo_.node(n).cores - free_[n];
  }
  return busy;
}

NodeIndex TaskScheduler::BestFreeNodeIn(
    const std::vector<NodeIndex>& candidates, NodeIndex best) const {
  for (NodeIndex n : candidates) {
    if (free_[n] <= 0) continue;
    if (best == kNoNode || free_[n] > free_[best]) best = n;
  }
  return best;
}

NodeIndex TaskScheduler::LeastLoadedFreeWorker() const {
  NodeIndex best = kNoNode;
  for (NodeIndex n = 0; n < topo_.num_nodes(); ++n) {
    if (free_[n] <= 0) continue;
    if (best == kNoNode || free_[n] > free_[best]) best = n;
  }
  return best;
}

bool TaskScheduler::NoLiveWorkerNear(
    const std::vector<NodeIndex>& preferred) const {
  for (NodeIndex pref : preferred) {
    for (NodeIndex n : topo_.nodes_in(topo_.dc_of(pref))) {
      if (topo_.node(n).worker && up_[n]) return false;
    }
  }
  return true;
}

bool TaskScheduler::TryAssign(Pending& pending) {
  TaskRequest& request = pending.request;
  NodeIndex node = kNoNode;
  LocalityLevel locality = LocalityLevel::kNoPreference;

  if (!request.preferred.empty()) {
    // Level 1: exactly a preferred node.
    node = BestFreeNodeIn(request.preferred);
    locality = LocalityLevel::kNodeLocal;
    if (node == kNoNode && request.policy != PlacementPolicy::kNodeOnly) {
      // Level 2: any worker in a datacenter hosting a preferred node.
      for (NodeIndex pref : request.preferred) {
        node = BestFreeNodeIn(topo_.nodes_in(topo_.dc_of(pref)), node);
      }
      locality = LocalityLevel::kDcLocal;
    }
    // Level 3: anywhere, but only after the locality wait expired (delay
    // scheduling). This is what keeps reduce tasks queued for the
    // aggregator datacenter instead of instantly spilling elsewhere.
    // kDcOnly tasks get this escape hatch only when their datacenters have
    // no live worker left at all — otherwise a permanent crash of the last
    // worker in the (e.g. central) datacenter would queue them forever and
    // silently hang the job.
    const bool may_spill =
        request.policy == PlacementPolicy::kAnyAfterWait ||
        (request.policy == PlacementPolicy::kDcOnly &&
         NoLiveWorkerNear(request.preferred));
    if (node == kNoNode && may_spill && sim_.Now() >= pending.spill_at) {
      node = LeastLoadedFreeWorker();
      locality = LocalityLevel::kAny;
    }
  } else {
    node = LeastLoadedFreeWorker();
    locality = LocalityLevel::kNoPreference;
  }

  if (node == kNoNode) return false;
  --free_[node];
  GS_CHECK(free_[node] >= 0);
  ++busy_[request.tenant];
  pending.wait_expiry.Cancel();
  if (m_assigned_ != nullptr) {
    m_assigned_->Add(1);
    m_queue_wait_->Observe(sim_.Now() - pending.submitted_at);
  }
  // Deliver through the simulator so assignment is observed at a stable
  // point in the event loop (and never reenters the scheduler mid-Pump).
  auto cb = std::move(request.on_assigned);
  sim_.Schedule(0, [cb = std::move(cb), node, locality] {
    cb(node, locality);
  });
  return true;
}

void TaskScheduler::Pump() {
  if (pumping_) return;
  pumping_ = true;
  // Weighted fair sharing: each round offers one slot to the queued tenant
  // with the smallest busy/weight share; within a tenant, first-fit in
  // submission order (a task with unsatisfiable preferences does not block
  // later tasks, matching Spark's per-offer matching). If the favored
  // tenant cannot place anything, the next-smallest share gets the offer —
  // fair sharing never idles a slot a heavier tenant could use.
  //
  // With a single tenant this reproduces the original FIFO first-fit
  // sequence exactly: assignments only consume slots and never advance
  // time, so a task that failed to place earlier in the pass still fails
  // after a later grant, and restarting from the head yields the same
  // order as one continuing sweep.
  //
  // TryAssign only ever grants a node with a free slot and has no side
  // effect when it fails, so a round with no free slot anywhere cannot
  // assign anything and is skipped. The queued tasks' wait_expiry wake-ups
  // stay scheduled and pump again at their spill times.
  bool assigned = true;
  while (assigned) {
    assigned = false;
    if (std::none_of(free_.begin(), free_.end(),
                     [](int free) { return free > 0; })) {
      break;
    }
    std::vector<int> tenants;
    for (const Pending& p : queue_) {
      if (std::find(tenants.begin(), tenants.end(), p.request.tenant) ==
          tenants.end()) {
        tenants.push_back(p.request.tenant);
      }
    }
    std::sort(tenants.begin(), tenants.end(),
              [this](int a, int b) { return SmallerShare(a, b); });
    for (int tenant : tenants) {
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->request.tenant != tenant) continue;
        if (TryAssign(*it)) {
          queue_.erase(it);
          assigned = true;
          break;
        }
      }
      if (assigned) break;
    }
  }
  pumping_ = false;
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->Set(static_cast<std::int64_t>(queue_.size()));
  }
}

}  // namespace gs
