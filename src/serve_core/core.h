#pragma once

/**
 * @file
 * Event-driven serve core shared by the tenant serve loop
 * (src/tenant/serve.cc) and the fleet engine's per-pod simulation
 * (src/fleet/engine.cc).
 *
 * The core serves a logical priority queue of events:
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
 * every emitted double is bit-identical to a run that takes the round
 * trip at every expiry (`Config::coalesce` off).
 *
 * The tenant loop and the fleet follow the same event rules: round
 * robin in enqueue order, preemption by any arrival at or before
 * `now`, idle jumps to the next arrival or gate due, and retirement of
 * a task whose next step no longer fits its departure or the wall.
 * One dispatch loop, `runUntil`, serves every policy, quantum and loop
 * mode; the one choice left to the caller is `Config::rateGates`,
 * closed loop or open loop.
 *
 * Clients provide `Task` records, costs, and billing through a
 * duck-typed interface (see `runUntil` for the expected members); the
 * core records each step's latency into the task.  Cross-executor
 * safety: the staleness rules (`nextArrivalSec`, `nextGateDueSec`)
 * call `client.owns(ex, idx)` *first*, because ownership is only
 * written at sequential epoch boundaries and is therefore race-free to
 * read while another executor concurrently mutates the task's
 * generation or state.
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

template <class Client>
inline void
enqueueReady(Client &c, Executor &ex, const Config &cfg, std::uint32_t idx)
{
    Task &t = c.task(idx);
    t.readyKey = makeKey(c, ex, cfg, idx);
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

/** Next pending arrival on this executor; +inf if none.  Stale
 *  entries (the task migrated, or was suspended or rejected before its
 *  first run here) are consumed without effect: an entry is live while
 *  the task is owned here and still pending. */
template <class Client>
inline double
nextArrivalSec(Client &c, Executor &ex)
{
    while (ex.arrCursor < ex.arrivals.size()) {
        const std::uint32_t idx = ex.arrivals[ex.arrCursor];
        // `owns` first: ownership is only written at sequential epoch
        // boundaries, so that read is race-free even when the task
        // migrated away and its new executor's epoch is concurrently
        // mutating its generation/state.
        if (!c.owns(ex, idx) ||
            c.task(idx).state != TaskState::kPending) {
            ++ex.arrCursor;
            continue;
        }
        return c.task(idx).arrivalSec;
    }
    return kInfSec;
}

/** Next valid gate-due on this executor; +inf if none.  Stale entries
 *  are popped: an entry is live while its task is owned here, has the
 *  entry's generation and is still gated. */
template <class Client>
inline double
nextGateDueSec(Client &c, Executor &ex)
{
    while (!ex.gated.empty()) {
        const GateEntry &top = ex.gated.top();
        // `owns` first -- see nextArrivalSec for the rationale.
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

/** Serve every arrival and gate-due event at or before `ex.nowSec`:
 *  the arrivals first, in arrival order, then the gates, in due order. */
template <class Client>
inline void
promote(Client &c, Executor &ex, const Config &cfg)
{
    while (nextArrivalSec(c, ex) <= ex.nowSec + kEps) {
        ++ex.counters.promotions;
        enqueueReady(c, ex, cfg, ex.arrivals[ex.arrCursor++]);
    }
    while (nextGateDueSec(c, ex) <= ex.nowSec + kEps) {
        const std::uint32_t idx = ex.gated.top().idx;
        ex.gated.pop();
        ++ex.counters.promotions;
        enqueueReady(c, ex, cfg, idx);
    }
}

/** Whether a step of `stepSec` that starts at `startSec` ends by `t`'s
 *  departure and by the wall (0 = none, for either). */
inline bool
stepFits(const Task &t, double startSec, double stepSec, double wallSec)
{
    const double endSec = startSec + stepSec;
    return !(t.departSec > 0.0 && endSec > t.departSec + kEps) &&
           !(wallSec > 0.0 && endSec > wallSec + kEps);
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
 */
template <class Client>
inline void
runUntil(Client &c, Executor &ex, const Config &cfg, double t1)
{
    const double wall = cfg.wallLimitSec;
    const double sw = c.switchSeconds(ex);

    for (;;) {
        promote(c, ex, cfg);
        if (ex.nowSec + kEps >= t1)
            break;

        std::size_t pick = kNoTask;
        if (ex.ready.empty()) {
            const double arr = nextArrivalSec(c, ex);
            const double due = nextGateDueSec(c, ex);
            // Fast path for the open-loop steady state: one gated task
            // alone on the executor, its due time the next event, no
            // task change pending.  Replays the generic idle-jump ->
            // promote -> dispatch transition sequence (same counters,
            // same clock writes, same fit test) without the ready-set
            // machinery, which on a fleet replay is the bulk of all
            // serve-core events.
            if (!(ex.gated.size() == 1 &&
                  ex.last == std::size_t(ex.gated.top().idx) &&
                  due < t1 - kEps && arr > due + kEps)) {
                const double ev = std::min(arr, due);
                if (!(ev < t1 - kEps))
                    break; // epoch end, or no event left
                if (ev > ex.nowSec)
                    ex.nowSec = ev;
                ++ex.counters.idleJumps;
                continue;
            }
            const std::uint32_t fidx = ex.gated.top().idx;
            ex.nowSec = due;
            ++ex.counters.idleJumps;
            ex.gated.pop();
            ++ex.counters.promotions;
            // The scan's fit test, for the lone candidate (lead is
            // zero: the task is already resident).
            if (!stepFits(c.task(fidx), ex.nowSec, c.stepSeconds(ex, fidx),
                          wall)) {
                retire(c, ex, fidx);
                continue;
            }
            c.task(fidx).state = TaskState::kReady;
            pick = fidx;
        } else {
            // Pick the first ready task (in policy order) that can
            // still run a step.  Tasks that can never run again --
            // their next step would end past their departure, or past
            // the wall -- retire on the spot.
            for (auto it = ex.ready.begin(); it != ex.ready.end();) {
                const std::uint32_t idx = it->idx;
                const double lead =
                    (ex.last != kNoTask && ex.last != std::size_t(idx))
                        ? sw
                        : 0.0;
                if (!stepFits(c.task(idx), ex.nowSec + lead,
                              c.stepSeconds(ex, idx), wall)) {
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
        const bool rate_gated = cfg.rateGates && t.rateSps > 0.0;

        // Run steps until completion, the epoch/wall boundary, the
        // departure, the open-loop gate or a new arrival ends the
        // dispatch.  A quantum expiry re-picks this task when no other
        // task is ready and no event is due (the step's own tests rule
        // out the rest), so that round trip is skipped.
        for (std::uint64_t q = 0;; ++q) {
            if (!stepFits(t, ex.nowSec, step_sec, wall))
                break;
            double due = 0.0;
            if (rate_gated) {
                due = nextDueSec(t);
                if (due > ex.nowSec + kEps)
                    break; // next step not issued yet
            }
            if (q == cfg.quantumIters) {
                if (!cfg.coalesce || !ex.ready.empty() ||
                    nextGateDueSec(c, ex) <= ex.nowSec + kEps)
                    break;
                ++ex.counters.coalescedQuanta;
                q = 0;
            }
            // Latency reference: the open-loop due time, or (closed
            // loop) the moment the step became eligible -- arrival for
            // the first step, the previous completion after that.
            const double eligible =
                rate_gated ? due
                           : std::max(t.arrivalSec,
                                      t.done > 0 ? t.lastCompletionSec
                                                 : t.arrivalSec);
            const double step_start = ex.nowSec;
            ex.nowSec += step_sec;
            ++t.done;
            ++ex.counters.steps;
            const double latency = ex.nowSec - eligible;
            if (t.slots)
                t.slots[t.done - 1] = latency;
            else
                t.overflow.push_back(latency);
            c.onStep(ex, pidx, step_start, latency, eligible, switch_lead);
            switch_lead = 0.0; // only the dispatch's first step
            t.lastCompletionSec = ex.nowSec;
            if (ex.nowSec <= stepDeadlineSec(t, t.done) + kEps)
                ++t.metDeadlines;
            if (t.stepLimit > 0 && t.done >= t.stepLimit) {
                t.completed = true;
                t.completionSec = ex.nowSec;
                break;
            }
            if (ex.nowSec + kEps >= t1)
                break;
            // Preemption point: a new arrival is waiting.
            if (nextArrivalSec(c, ex) <= ex.nowSec + kEps)
                break;
        }

        const double due = nextDueSec(t);
        if (t.completed ||
            (t.departSec > 0.0 && ex.nowSec + step_sec > t.departSec + kEps))
            retire(c, ex, pidx);
        else if (rate_gated && due > ex.nowSec + kEps)
            gate(c, ex, pidx, due);
        else
            enqueueReady(c, ex, cfg, pidx);
    }
}

} // namespace serve_core
} // namespace diva
