#pragma once

/**
 * @file
 * Event-driven serve core shared by the tenant serve loop
 * (src/tenant/serve.cc) and the fleet engine's per-pod simulation
 * (src/fleet/engine.cc).
 *
 * The core replaces the old per-quantum all-tenant scan loops with a
 * logical priority queue of events:
 *
 *   arrival         a placed task's arrival time is reached
 *                   (sorted arrival list consumed by a cursor)
 *   gate due        an open-loop / migration-gated task's next step
 *                   comes due (lazily-invalidated min-heap)
 *   quantum expiry  the running task's quantum ends and a fresh
 *                   scheduling decision is due (implicit in the
 *                   dispatch loop; coalesced away when it would be a
 *                   guaranteed no-op re-pick)
 *   epoch end       the caller's boundary `t1`: the fleet's budget /
 *                   rebalance / placement rounds run between epochs,
 *                   and the wall budget is the last boundary (the
 *                   tenant loop passes the wall, or +inf, as its one
 *                   epoch)
 *   run end         no event left to serve
 *
 * Ready tasks sit in a `ReadySet` (a sorted small-vector with
 * std::set<ReadyKey> ordering) whose first element is always the
 * policy's pick (FIFO: arrival; priority:
 * (-priority, arrival); EDF: (next deadline, arrival); round-robin: a
 * monotone enqueue sequence number) with the task index as the final
 * tie break.  Dispatching pops the pick, runs up to one quantum of
 * iterations, and re-enqueues / gates / retires the task.
 *
 * The multi-quantum advance: when the quantum expires with no other
 * ready task and no promotable event, re-enqueue + promote + re-pick
 * is a guaranteed no-op that would hand the engine straight back to
 * the same task.  The core skips that scheduler round trip and keeps
 * stepping (counted in `Counters::coalescedQuanta`).  Time still
 * accumulates serially, one `now += stepSeconds` per iteration, so
 * every emitted double is bit-identical to the one-quantum-at-a-time
 * loops this file replaced.
 *
 * The tenant loop and the fleet follow the same event rules: round
 * robin in enqueue order, preemption by any arrival at or before
 * `now`, idle jumps to the next arrival or gate due, and retirement of
 * a task whose next step no longer fits its departure or the wall.
 * The one choice left to the caller is `Config::rateGates`, closed
 * loop or open loop.
 *
 * Clients provide `Task` records, costs, and billing through a
 * duck-typed interface (see `runUntil` for the expected members); the
 * core records each step's latency into the task.  Cross-executor
 * safety: every staleness check calls `client.owns(ex, idx)` *first*,
 * because ownership is only written at sequential epoch boundaries and
 * is therefore race-free to read while another executor concurrently
 * mutates the task's generation or state.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/small_vector.h"
#include "tenant/scheduler.h"

namespace diva
{
namespace serve_core
{

constexpr double kEps = 1e-9;
constexpr double kInfSec = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoTask = std::size_t(-1);

/**
 * Composite ordering key of the ready set.  FIFO: (arrival); priority:
 * (-priority, arrival); EDF: (next deadline, arrival); round-robin
 * uses a monotone sequence number instead -- with the task index as
 * the final tie break, so the first element of the set is always the
 * policy's pick.
 */
struct ReadyKey
{
    double k1 = 0.0;
    double k2 = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t idx = 0;

    bool operator<(const ReadyKey &o) const
    {
        if (k1 != o.k1)
            return k1 < o.k1;
        if (k2 != o.k2)
            return k2 < o.k2;
        if (seq != o.seq)
            return seq < o.seq;
        return idx < o.idx;
    }
};

/** Lazily-invalidated entry of an executor's gated-until min-heap. */
struct GateEntry
{
    double dueSec = 0.0;
    std::uint32_t idx = 0;
    std::uint64_t gen = 0;

    bool operator>(const GateEntry &o) const
    {
        if (dueSec != o.dueSec)
            return dueSec > o.dueSec;
        if (idx != o.idx)
            return idx > o.idx;
        return gen > o.gen;
    }
};

enum class TaskState : std::uint8_t
{
    kPending,   // placed, waiting for its arrival time
    kReady,     // in its executor's ready set
    kGated,     // waiting for its next due time (open loop / migration)
    kSuspended, // preempted by the caller (fleet energy budget)
    kDone,      // service over (completed, departed, starved, rejected)
};

/**
 * The ready set: a sorted small-vector ordered exactly like the
 * std::set<ReadyKey> it replaced (operator<, first element = the
 * policy's pick), with the first 8 entries stored inline in the
 * executor.  The live keys are [head_, end): popping the pick only
 * advances the head, and `insert` compacts that dead prefix only when
 * the storage is full, so a round-robin dispatch (pop the first key,
 * append the next sequence number) moves keys only at a compaction,
 * not once per dispatch.  The schedule it produces is
 * element-for-element identical, which the golden serve-core byte
 * fixtures hold it to.
 */
class ReadySet
{
  public:
    using iterator = ReadyKey *;

    bool empty() const { return head_ == keys_.size(); }
    std::size_t size() const { return keys_.size() - head_; }
    iterator begin() { return keys_.begin() + head_; }
    iterator end() { return keys_.end(); }

    void insert(const ReadyKey &k)
    {
        if (head_ > 0 && keys_.size() == keys_.capacity()) {
            keys_.erase(keys_.begin(), begin());
            head_ = 0;
        }
        // Round-robin keys only grow, so they append without a search.
        if (empty() || keys_.back() < k)
            keys_.push_back(k);
        else
            keys_.insert(lower_bound(k), k);
    }

    /** Remove `k` if present (std::set::erase(key) semantics). */
    void erase(const ReadyKey &k)
    {
        const iterator it = lower_bound(k);
        if (it != end() && !(k < *it))
            erase(it);
    }

    /** Erase the key at `it`; returns the next key. */
    iterator erase(iterator it)
    {
        if (it != begin())
            return keys_.erase(it);
        if (++head_ == keys_.size()) {
            keys_.clear();
            head_ = 0;
        }
        return begin();
    }

  private:
    iterator lower_bound(const ReadyKey &k)
    {
        return std::lower_bound(begin(), end(), k);
    }

    SmallVector<ReadyKey, 8> keys_;
    /** Keys before this index have been popped. */
    std::size_t head_ = 0;
};

/**
 * The gated-until min-heap, replacing std::priority_queue<GateEntry,
 * vector, greater<>> with the same std::push_heap/std::pop_heap calls
 * over inline small-vector storage -- the pop order (and therefore
 * every emitted byte) is unchanged, but a steady-state executor never
 * touches the allocator.
 */
class GatedHeap
{
  public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    const GateEntry &top() const { return heap_.front(); }

    void push(const GateEntry &e)
    {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(),
                       std::greater<GateEntry>());
    }

    void pop()
    {
        std::pop_heap(heap_.begin(), heap_.end(),
                      std::greater<GateEntry>());
        heap_.pop_back();
    }

  private:
    SmallVector<GateEntry, 8> heap_;
};

/** One task: the session's scheduling facts, the state the core keeps
 *  for it, and the store its step latencies go to. */
struct Task
{
    // Facts, filled once by the client (see taskOf in tenant/serve.h).
    double arrivalSec = 0.0;
    /** Hard departure; 0 = none. */
    double departSec = 0.0;
    /** Open-loop step rate; > 0 gates steps and sets their deadlines. */
    double rateSps = 0.0;
    /** Deadline of the whole budget when there is no rate; 0 = none. */
    double qosDeadlineSec = 0.0;
    /** Step budget; 0 = unbounded. */
    std::uint64_t stepLimit = 0;
    int priority = 0;

    TaskState state = TaskState::kPending;
    /** Bumped whenever the task leaves a queue, invalidating stale
     *  gated-heap entries that still carry the old generation. */
    std::uint64_t gen = 0;
    /** The key under which the task sits in ready (state kReady). */
    ReadyKey readyKey;

    std::uint64_t done = 0;
    std::uint64_t metDeadlines = 0;
    /** End of step `done`; read only once done > 0. */
    double lastCompletionSec = 0.0;
    bool completed = false;
    double completionSec = 0.0;

    /** Step k's latency lands in slots[k - 1] when the caller gave the
     *  task slots in its arena (see latencySlots in tenant/serve.h),
     *  else it is appended to `overflow`. */
    double *slots = nullptr;
    std::vector<double> overflow;
};

/** The step latencies recorded for `t` so far, in step order. */
inline std::span<double>
samples(Task &t)
{
    if (t.slots)
        return {t.slots, std::size_t(t.done)};
    return t.overflow;
}

/** When `t`'s next step is due: open loop, arrival + done / rate;
 *  untargeted, its arrival (any time from then on). */
inline double
nextDueSec(const Task &t)
{
    return t.rateSps > 0.0 ? t.arrivalSec + double(t.done) / t.rateSps
                           : t.arrivalSec;
}

/** Per-executor event accounting, surfaced to the perf benches. */
struct Counters
{
    std::uint64_t steps = 0;
    std::uint64_t dispatches = 0;
    /** Quantum expiries absorbed without a scheduler round trip. */
    std::uint64_t coalescedQuanta = 0;
    std::uint64_t promotions = 0; // arrival + gate-due events served
    std::uint64_t idleJumps = 0;
    std::uint64_t switches = 0;
    std::uint64_t retired = 0;

    /** Discrete events the core processed (for events/sec rates). */
    std::uint64_t events() const
    {
        return dispatches + coalescedQuanta + promotions + idleJumps +
               retired;
    }

    Counters &operator+=(const Counters &o)
    {
        steps += o.steps;
        dispatches += o.dispatches;
        coalescedQuanta += o.coalescedQuanta;
        promotions += o.promotions;
        idleJumps += o.idleJumps;
        switches += o.switches;
        retired += o.retired;
        return *this;
    }
};

/** One serving executor (the whole engine for the tenant loop, one pod
 *  for the fleet).  Epochs touch only their own executor's state. */
struct Executor
{
    /** Caller-assigned id (the fleet's pod index). */
    std::size_t id = 0;

    double nowSec = 0.0;
    std::size_t last = kNoTask;

    ReadySet ready;
    /** Tasks first placed here, in arrival order (cursor consumed). */
    std::vector<std::uint32_t> arrivals;
    std::size_t arrCursor = 0;
    GatedHeap gated;
    std::uint64_t rrSeq = 0;

    Counters counters;
};

/** Scheduling policy, quantum, wall budget and loop mode of one run. */
struct Config
{
    SchedPolicy policy = SchedPolicy::kRoundRobin;
    std::uint64_t quantumIters = 1;
    /** Wall-clock budget in simulated seconds; 0 = unbounded.  A step
     *  that would end past it never starts; the caller also passes it
     *  as the last epoch boundary `t1`. */
    double wallLimitSec = 0.0;

    /** Open loop: a rate-target task only becomes runnable when its
     *  next step is due (trace replay and the fleet).  Off is closed
     *  loop: tasks run back to back (the static `diva_serve` mixes). */
    bool rateGates = true;

    /** Test/debug: take the multi-quantum fast path.  Off forces a
     *  full scheduler round trip at every quantum expiry; the
     *  schedule, clocks and billing must be bit-identical either way
     *  (test_serve_core holds the core to that), only the
     *  dispatch/coalesce counters shift. */
    bool coalesce = true;
};

/** Deadline of step `k` (1-based) of `t`; +inf if untargeted. */
inline double
stepDeadlineSec(const Task &t, std::uint64_t k)
{
    if (t.rateSps > 0.0)
        return t.arrivalSec + double(k) / t.rateSps;
    if (t.qosDeadlineSec > 0.0)
        return t.qosDeadlineSec;
    return kInfSec;
}

template <class Client>
inline ReadyKey
makeKey(const Client &c, Executor &ex, const Config &cfg,
        std::uint32_t idx)
{
    const Task &t = c.task(idx);
    ReadyKey key;
    key.idx = idx;
    switch (cfg.policy) {
      case SchedPolicy::kFifo:
        key.k1 = t.arrivalSec;
        break;
      case SchedPolicy::kPriority:
        key.k1 = -double(t.priority);
        key.k2 = t.arrivalSec;
        break;
      case SchedPolicy::kEdf:
        key.k1 = stepDeadlineSec(t, t.done + 1);
        key.k2 = t.arrivalSec;
        break;
      case SchedPolicy::kRoundRobin:
        key.seq = ++ex.rrSeq;
        break;
    }
    return key;
}

/** `kSteady` statically selects the round-robin key (see runUntil):
 *  the policy switch folds away and the key is just the next sequence
 *  number. */
template <bool kSteady, class Client>
inline void
enqueueReadyT(Client &c, Executor &ex, const Config &cfg,
              std::uint32_t idx)
{
    Task &t = c.task(idx);
    if constexpr (kSteady) {
        ReadyKey key;
        key.idx = idx;
        key.seq = ++ex.rrSeq;
        t.readyKey = key;
    } else {
        t.readyKey = makeKey(c, ex, cfg, idx);
    }
    t.state = TaskState::kReady;
    ex.ready.insert(t.readyKey);
}

/** Park `idx` until `dueSec`; a fresh generation invalidates any older
 *  heap entry the task may still have. */
template <class Client>
inline void
gate(Client &c, Executor &ex, std::uint32_t idx, double dueSec)
{
    Task &t = c.task(idx);
    ++t.gen;
    t.state = TaskState::kGated;
    ex.gated.push({dueSec, idx, t.gen});
}

/** Pull `idx` out of its executor's queues (suspension, migration).
 *  The caller sets the task's next state. */
template <class Client>
inline void
unschedule(Client &c, Executor &ex, std::uint32_t idx)
{
    Task &t = c.task(idx);
    if (t.state == TaskState::kReady)
        ex.ready.erase(t.readyKey);
    ++t.gen; // invalidates any gated entry
}

template <class Client>
inline void
retire(Client &c, Executor &ex, std::uint32_t idx)
{
    c.task(idx).state = TaskState::kDone;
    ++ex.counters.retired;
    c.onRetire(ex, idx);
}

/** Serve every arrival and gate-due event at or before `ex.nowSec`. */
template <bool kSteady, class Client>
inline void
promoteT(Client &c, Executor &ex, const Config &cfg)
{
    while (ex.arrCursor < ex.arrivals.size()) {
        const std::uint32_t idx = ex.arrivals[ex.arrCursor];
        // Stale entries (task migrated, suspended or rejected before
        // its first run here) are consumed without effect.  `owns` is
        // tested first: ownership is only written at sequential epoch
        // boundaries, so that read is race-free even when the task
        // migrated away and its new executor's epoch is concurrently
        // mutating its generation/state.
        if (!c.owns(ex, idx) ||
            c.task(idx).state != TaskState::kPending) {
            ++ex.arrCursor;
            continue;
        }
        if (c.task(idx).arrivalSec > ex.nowSec + kEps)
            break;
        ++ex.arrCursor;
        ++ex.counters.promotions;
        enqueueReadyT<kSteady>(c, ex, cfg, idx);
    }
    while (!ex.gated.empty()) {
        const GateEntry &top = ex.gated.top();
        // `owns` first -- see the arrival scan for the rationale.
        if (!c.owns(ex, top.idx) ||
            top.gen != c.task(top.idx).gen ||
            c.task(top.idx).state != TaskState::kGated) {
            ex.gated.pop();
            continue;
        }
        if (top.dueSec > ex.nowSec + kEps)
            break;
        const std::uint32_t idx = top.idx;
        ex.gated.pop();
        ++ex.counters.promotions;
        enqueueReadyT<kSteady>(c, ex, cfg, idx);
    }
}

/** Next pending arrival on this executor; +inf if none.  Consumes
 *  stale cursor entries exactly like `promoteT` would. */
template <class Client>
inline double
nextArrivalSec(Client &c, Executor &ex)
{
    while (ex.arrCursor < ex.arrivals.size()) {
        const std::uint32_t idx = ex.arrivals[ex.arrCursor];
        if (!c.owns(ex, idx) ||
            c.task(idx).state != TaskState::kPending) {
            ++ex.arrCursor;
            continue;
        }
        return c.task(idx).arrivalSec;
    }
    return kInfSec;
}

/** Next valid gate-due on this executor; +inf if none. */
template <class Client>
inline double
nextGateDueSec(Client &c, Executor &ex)
{
    while (!ex.gated.empty()) {
        const GateEntry &top = ex.gated.top();
        if (!c.owns(ex, top.idx) ||
            top.gen != c.task(top.idx).gen ||
            c.task(top.idx).state != TaskState::kGated) {
            ex.gated.pop();
            continue;
        }
        return top.dueSec;
    }
    return kInfSec;
}

/** The next wake-up event (arrival or gate due) on this executor;
 *  +inf if none. */
template <class Client>
inline double
nextEventSec(Client &c, Executor &ex)
{
    return std::min(nextArrivalSec(c, ex), nextGateDueSec(c, ex));
}

/**
 * Serve one executor until the epoch boundary `t1` or event
 * exhaustion.  The caller passes the wall budget, when one is set, as
 * the last boundary, and +inf for an uninterrupted run.
 *
 * `Client` provides, duck-typed:
 *   bool   owns(const Executor &, uint32_t idx) const
 *   Task  &task(idx)  (and a const overload)
 *   double stepSeconds(const Executor &, idx) const
 *   double switchSeconds(const Executor &) const
 *   void   onSwitch(Executor &, idx)      -- bill the context switch
 *   void   onStep(Executor &, idx, stepStartSec, latencySec,
 *                 eligibleSec, switchLeadSec)
 *   void   onRetire(Executor &, idx)
 *
 * The core stores each step's latency in its task (see Task::slots)
 * just before onStep, which gets it too, for telemetry and tracing.
 * onStep's eligibleSec is the latency reference point (latencySec ==
 * nowSec - eligibleSec at the call); switchLeadSec is the context
 * switch billed immediately ahead of this step (nonzero only on a
 * dispatch's first step, and only when the dispatch changed tasks).
 * Together they let a client split latencySec into queue-wait /
 * switch / service components without re-deriving engine state.
 *
 * switchSeconds must be constant over one runUntil call (both clients
 * derive it from the executor's fixed hardware type); it is read once.
 *
 * `kSteady` marks the fleet's steady-state serve configuration (round
 * robin, rate gates, quantum 1, coalescing); open-loop tenant replays
 * with the same settings take it too.  runUntil checks the
 * configuration once per call and dispatches here, so in this
 * instantiation every cfg test below folds to a constant and the dead
 * branches drop out of the per-event code.  Both instantiations make
 * bit-identical serve decisions for any config.
 */
template <bool kSteady, class Client>
inline void
runUntilT(Client &c, Executor &ex, const Config &cfg, double t1)
{
    const double wall = cfg.wallLimitSec;
    const bool coalesce = kSteady || cfg.coalesce;
    const bool rate_gates = kSteady || cfg.rateGates;
    const std::uint64_t quantum = kSteady ? 1 : cfg.quantumIters;
    const double sw = c.switchSeconds(ex);

    // Cache of nextArrivalSec.  The next pending arrival's time can
    // only change when `promote` consumes it, and promote consumes
    // arrivals exactly when they are <= now + kEps -- the invalidation
    // test below.  Nothing else inside one runUntil call moves a task
    // into or out of kPending (placement runs between epochs), so a
    // cached value that survives the test is the value nextArrivalSec
    // would return.  Saves a tenant-table load per event on replays.
    double next_arr = 0.0;
    bool next_arr_known = false;
    auto nextArr = [&]() {
        if (!next_arr_known) {
            next_arr = nextArrivalSec(c, ex);
            next_arr_known = true;
        }
        return next_arr;
    };

    for (;;) {
        if (next_arr_known && next_arr <= ex.nowSec + kEps)
            next_arr_known = false; // promote is about to consume it
        promoteT<kSteady>(c, ex, cfg);
        if (ex.nowSec + kEps >= t1)
            break;

        std::size_t pick = kNoTask;
        if (ex.ready.empty()) {
            // Fast path for the open-loop steady state: one gated task
            // alone on the executor, its due time the next event, no
            // task change pending.  Replays the generic idle-jump ->
            // promote -> dispatch transition sequence (same counters,
            // same clock writes, same fit checks) without the
            // next-event and ready-set machinery, which on a fleet
            // replay is the bulk of all serve-core events.
            bool fast = false;
            if (ex.gated.size() == 1) {
                const GateEntry &top = ex.gated.top();
                if (c.owns(ex, top.idx) &&
                    top.gen == c.task(top.idx).gen &&
                    c.task(top.idx).state == TaskState::kGated &&
                    ex.last == std::size_t(top.idx) &&
                    top.dueSec < t1 - kEps &&
                    nextArr() > top.dueSec + kEps)
                    fast = true;
            }
            if (!fast) {
                const double ev = nextEventSec(c, ex);
                if (!(ev < t1 - kEps))
                    break; // epoch end, or no event left
                if (ev > ex.nowSec)
                    ex.nowSec = ev;
                ++ex.counters.idleJumps;
                continue;
            }
            const std::uint32_t fidx = ex.gated.top().idx;
            ex.nowSec = ex.gated.top().dueSec;
            ++ex.counters.idleJumps;
            ex.gated.pop();
            ++ex.counters.promotions;
            // The scan's fit checks, for the lone candidate (lead is
            // zero: the task is already resident).
            const double fstep = c.stepSeconds(ex, fidx);
            const double fdep = c.task(fidx).departSec;
            if ((fdep > 0.0 && ex.nowSec + fstep > fdep + kEps) ||
                (wall > 0.0 && ex.nowSec + fstep > wall + kEps)) {
                retire(c, ex, fidx);
                continue;
            }
            c.task(fidx).state = TaskState::kReady;
            pick = fidx;
        }

        // Pick the first ready task (in policy order) that can still
        // run a step.  Tasks that can never run again -- their next
        // step would end past their departure, or past the wall --
        // retire on the spot.
        if (pick == kNoTask) {
            for (auto it = ex.ready.begin(); it != ex.ready.end();) {
                const std::uint32_t idx = it->idx;
                const double step_sec = c.stepSeconds(ex, idx);
                const double lead =
                    (ex.last != kNoTask && ex.last != std::size_t(idx))
                        ? sw
                        : 0.0;
                const double dep = c.task(idx).departSec;
                if ((dep > 0.0 &&
                     ex.nowSec + lead + step_sec > dep + kEps) ||
                    (wall > 0.0 &&
                     ex.nowSec + lead + step_sec > wall + kEps)) {
                    it = ex.ready.erase(it);
                    retire(c, ex, idx);
                    continue;
                }
                pick = idx;
                ex.ready.erase(it);
                break;
            }
            if (pick == kNoTask)
                continue; // everything retired; re-check events
        }

        ++ex.counters.dispatches;
        double switch_lead = 0.0;
        if (ex.last != kNoTask && pick != ex.last) {
            // Bill the task change: the engine stalls while the
            // outgoing working set flushes and the incoming one loads.
            ++ex.counters.switches;
            ex.nowSec += sw;
            c.onSwitch(ex, std::uint32_t(pick));
            switch_lead = sw;
        }
        ex.last = pick;

        const std::uint32_t pidx = std::uint32_t(pick);
        Task &t = c.task(pidx);
        const double step_sec = c.stepSeconds(ex, pidx);
        const double arrival = t.arrivalSec;
        const double dep = t.departSec;
        const double rate = t.rateSps;
        const bool rate_gated = rate_gates && rate > 0.0;
        const std::uint64_t limit = t.stepLimit;
        double *const slots = t.slots;
        // `arrival + done/rate` changes only when `done` does; caching
        // the latest value saves the deadline check, the coalesce
        // check and the end-of-dispatch transition their own FP
        // divisions.  Reuse of the identical expression cannot change
        // a byte.
        double due_cache = 0.0;
        bool due_cached = false;

        // Whether the quantum-expiry re-pick is a guaranteed no-op:
        // no other ready task, no promotable event, boundary not hit.
        // Then re-enqueue + promote + pick hands the engine straight
        // back to this task and the round trip can be skipped.
        auto canCoalesce = [&]() {
            if (!coalesce)
                return false;
            if (!ex.ready.empty())
                return false;
            if (ex.nowSec + kEps >= t1)
                return false;
            // The runner must be able to step again; otherwise the
            // dispatch-end transition (retire / gate / re-enqueue)
            // must run.
            if (limit > 0 && t.done >= limit)
                return false;
            if (wall > 0.0 && ex.nowSec + step_sec > wall + kEps)
                return false;
            if (dep > 0.0 && ex.nowSec + step_sec > dep + kEps)
                return false;
            if (rate_gated &&
                (due_cached ? due_cache
                            : arrival + double(t.done) / rate) >
                    ex.nowSec + kEps)
                return false;
            if (nextArr() <= ex.nowSec + kEps)
                return false;
            if (nextGateDueSec(c, ex) <= ex.nowSec + kEps)
                return false;
            return true;
        };

        // Run quanta, ending early on completion, on the epoch/wall
        // boundary, on departure, on the open-loop gate, or when a
        // new arrival makes a fresh scheduling decision due.
        bool dispatching = true;
        while (dispatching) {
            std::uint64_t q = 0;
            for (; q < quantum; ++q) {
                if (limit > 0 && t.done >= limit) {
                    dispatching = false;
                    break;
                }
                if (wall > 0.0 &&
                    ex.nowSec + step_sec > wall + kEps) {
                    dispatching = false;
                    break;
                }
                if (dep > 0.0 && ex.nowSec + step_sec > dep + kEps) {
                    dispatching = false;
                    break;
                }
                double due = 0.0;
                if (rate_gated) {
                    due = due_cached
                              ? due_cache
                              : arrival + double(t.done) / rate;
                    if (due > ex.nowSec + kEps) {
                        dispatching = false;
                        break; // next step not issued yet
                    }
                }
                // Latency reference: the open-loop due time, or
                // (closed loop) the moment the step became eligible --
                // arrival for the first step, the previous completion
                // after that.
                const double eligible =
                    rate_gated
                        ? due
                        : std::max(arrival,
                                   t.done > 0 ? t.lastCompletionSec
                                              : arrival);
                const double step_start = ex.nowSec;
                ex.nowSec += step_sec;
                ++t.done;
                ++ex.counters.steps;
                const double latency = ex.nowSec - eligible;
                if (slots)
                    slots[t.done - 1] = latency;
                else
                    t.overflow.push_back(latency);
                c.onStep(ex, pidx, step_start, latency, eligible,
                         switch_lead);
                switch_lead = 0.0; // only the dispatch's first step
                t.lastCompletionSec = ex.nowSec;
                double deadline;
                if (rate > 0.0) {
                    // stepDeadlineSec's rate branch, computed here so
                    // the due cache picks up the new `done`'s value.
                    deadline = arrival + double(t.done) / rate;
                    due_cache = deadline;
                    due_cached = true;
                } else {
                    deadline = stepDeadlineSec(t, t.done);
                }
                if (ex.nowSec <= deadline + kEps)
                    ++t.metDeadlines;
                if (limit > 0 && t.done >= limit) {
                    t.completed = true;
                    t.completionSec = ex.nowSec;
                    dispatching = false;
                    break;
                }
                if (ex.nowSec + kEps >= t1) {
                    dispatching = false;
                    break;
                }
                // Preemption point: a new arrival is waiting.
                if (ex.arrCursor < ex.arrivals.size() &&
                    c.task(ex.arrivals[ex.arrCursor]).arrivalSec <=
                        ex.nowSec + kEps) {
                    dispatching = false;
                    break;
                }
            }
            if (!dispatching)
                break;
            if (!canCoalesce())
                break;
            ++ex.counters.coalescedQuanta;
        }

        if (t.completed) {
            retire(c, ex, pidx);
        } else if (dep > 0.0 && ex.nowSec + step_sec > dep + kEps) {
            retire(c, ex, pidx);
        } else if (rate_gated) {
            const double due =
                due_cached ? due_cache
                           : arrival + double(t.done) / rate;
            if (due > ex.nowSec + kEps)
                gate(c, ex, pidx, due);
            else
                enqueueReadyT<kSteady>(c, ex, cfg, pidx);
        } else {
            enqueueReadyT<kSteady>(c, ex, cfg, pidx);
        }
    }
}

template <class Client>
inline void
runUntil(Client &c, Executor &ex, const Config &cfg, double t1)
{
    if (cfg.policy == SchedPolicy::kRoundRobin && cfg.rateGates &&
        cfg.coalesce && cfg.quantumIters == 1)
        runUntilT<true>(c, ex, cfg, t1);
    else
        runUntilT<false>(c, ex, cfg, t1);
}

} // namespace serve_core
} // namespace diva
