package obs

import (
	"fmt"
	"io"
	"sync/atomic"
)

// admBounds are the admission-latency histogram bucket upper bounds in
// nanoseconds; admLabels are the matching Prometheus `le` labels in
// seconds. The last bucket is +Inf.
var (
	admBounds = [...]int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	admLabels = [...]string{"1e-06", "1e-05", "0.0001", "0.001", "0.01", "0.1", "1"}
)

// NumAdmissionBuckets is the number of admission-latency histogram
// buckets, including the implicit +Inf bucket.
const NumAdmissionBuckets = len(admBounds) + 1

// Metrics is the runtime's metric set: monotonic counters for the task
// operations and scheduler work, gauges for queue depth and pool
// utilization, and an admission-latency histogram. All fields are atomics
// and may be bumped concurrently; the exported counter fields are updated
// directly by the runtime and schedulers.
type Metrics struct {
	// Task lifecycle counters.
	TasksSubmitted atomic.Uint64 // ExecuteLater/Execute submissions
	TasksCompleted atomic.Uint64 // bodies finished (incl. spawned tasks)
	Spawns         atomic.Uint64 // Ctx.Spawn effect transfers (§3.1.5)
	Joins          atomic.Uint64 // Ctx.Join effect transfers back
	Blocks         atomic.Uint64 // blocking getValue/join entries
	Transfers      atomic.Uint64 // blocker publications licensing transfer (§3.1.4)

	// Fault-tolerance counters (DESIGN.md §10).
	TasksCancelled     atomic.Uint64 // futures finished by cancellation (any cause)
	TaskPanics         atomic.Uint64 // task bodies that panicked (contained as failures)
	DeadlinesExceeded  atomic.Uint64 // cancellations caused by an expired deadline
	DyneffRetries      atomic.Uint64 // dynamic-effects section aborts that retried
	DyneffBreakerTrips atomic.Uint64 // abort-storm circuit-breaker openings
	PoolPanics         atomic.Uint64 // panics contained by a pool worker (runtime-layer bugs)

	// Scheduler counters.
	ConflictChecks atomic.Uint64 // conflicts() predicate invocations
	ConflictHits   atomic.Uint64 // checks that found interference
	AdmissionScans atomic.Uint64 // naive queue scans / tree rechecks
	TreeNodeVisits atomic.Uint64 // tree-scheduler node traversals
	WorkersStarted atomic.Uint64 // pool worker goroutines launched
	PoolSteals     atomic.Uint64 // tasks a pool worker stole from another deque
	PoolParks      atomic.Uint64 // permanent pool workers parking for lack of work
	PoolWakeups    atomic.Uint64 // parked pool workers woken to run new work

	// Lock-free admission counters (DESIGN.md §17): effectful submissions
	// admitted by the zero-lock epoch-snapshot walk vs the locked descent.
	AdmitFastpath atomic.Uint64 // lock-free fast-path admissions
	AdmitSlowpath atomic.Uint64 // locked (slow-path) admissions

	// Batched-admission counters (DESIGN.md §12).
	BatchSubmits  atomic.Uint64 // SubmitBatch calls that reached the scheduler
	BatchTasks    atomic.Uint64 // futures submitted through SubmitBatch
	BatchDescents atomic.Uint64 // shared-prefix tree descents performed for batches

	// Gauges (use the Set/Add methods, which track peaks).
	queueDepth       atomic.Int64
	queueDepthPeak   atomic.Int64
	poolRunning      atomic.Int64
	poolRunningPeak  atomic.Int64
	internerResident atomic.Int64

	// Admission-latency histogram (submit → all effects enabled).
	admCount   atomic.Uint64
	admSumNS   atomic.Int64
	admBuckets [NumAdmissionBuckets]atomic.Uint64
}

// SetQueueDepth records the scheduler's current not-yet-enabled task
// count and updates the peak.
func (m *Metrics) SetQueueDepth(n int64) {
	m.queueDepth.Store(n)
	updatePeak(&m.queueDepthPeak, n)
}

// SetPoolRunning records the pool's current running-worker count and
// updates the peak.
func (m *Metrics) SetPoolRunning(n int64) {
	m.poolRunning.Store(n)
	updatePeak(&m.poolRunningPeak, n)
}

// SetInternerResident records the effect interner's occupied-slot count
// (DESIGN.md §17).
func (m *Metrics) SetInternerResident(n int64) {
	m.internerResident.Store(n)
}

func updatePeak(peak *atomic.Int64, n int64) {
	for {
		p := peak.Load()
		if n <= p || peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// ObserveAdmission records one submit→enable latency in nanoseconds.
func (m *Metrics) ObserveAdmission(ns int64) {
	if ns < 0 {
		ns = 0
	}
	m.admCount.Add(1)
	m.admSumNS.Add(ns)
	idx := len(admBounds) // +Inf
	for i, b := range admBounds {
		if ns <= b {
			idx = i
			break
		}
	}
	m.admBuckets[idx].Add(1)
}

// Snapshot is a plain-value copy of every metric, cheap enough for tests
// to take between workload phases.
type Snapshot struct {
	TasksSubmitted, TasksCompleted   uint64
	Spawns, Joins, Blocks, Transfers uint64
	TasksCancelled, TaskPanics       uint64
	DeadlinesExceeded                uint64
	DyneffRetries                    uint64
	DyneffBreakerTrips               uint64
	PoolPanics                       uint64
	ConflictChecks, ConflictHits     uint64
	AdmissionScans, TreeNodeVisits   uint64
	WorkersStarted, PoolSteals       uint64
	PoolParks, PoolWakeups           uint64
	AdmitFastpath, AdmitSlowpath     uint64
	BatchSubmits, BatchTasks         uint64
	BatchDescents                    uint64
	QueueDepth, QueueDepthPeak       int64
	PoolRunning, PoolRunningPeak     int64
	InternerResident                 int64
	AdmissionCount                   uint64
	AdmissionSumNS                   int64
	AdmissionBuckets                 [NumAdmissionBuckets]uint64
}

// ConflictHitRate returns hits/checks, or 0 when no checks ran.
func (s Snapshot) ConflictHitRate() float64 {
	if s.ConflictChecks == 0 {
		return 0
	}
	return float64(s.ConflictHits) / float64(s.ConflictChecks)
}

// Snapshot returns a consistent-enough copy of the metrics (each field is
// read atomically; cross-field skew is possible while the workload runs).
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	s := Snapshot{
		TasksSubmitted:     m.TasksSubmitted.Load(),
		TasksCompleted:     m.TasksCompleted.Load(),
		Spawns:             m.Spawns.Load(),
		Joins:              m.Joins.Load(),
		Blocks:             m.Blocks.Load(),
		Transfers:          m.Transfers.Load(),
		TasksCancelled:     m.TasksCancelled.Load(),
		TaskPanics:         m.TaskPanics.Load(),
		DeadlinesExceeded:  m.DeadlinesExceeded.Load(),
		DyneffRetries:      m.DyneffRetries.Load(),
		DyneffBreakerTrips: m.DyneffBreakerTrips.Load(),
		PoolPanics:         m.PoolPanics.Load(),
		ConflictChecks:     m.ConflictChecks.Load(),
		ConflictHits:       m.ConflictHits.Load(),
		AdmissionScans:     m.AdmissionScans.Load(),
		TreeNodeVisits:     m.TreeNodeVisits.Load(),
		WorkersStarted:     m.WorkersStarted.Load(),
		PoolSteals:         m.PoolSteals.Load(),
		PoolParks:          m.PoolParks.Load(),
		PoolWakeups:        m.PoolWakeups.Load(),
		AdmitFastpath:      m.AdmitFastpath.Load(),
		AdmitSlowpath:      m.AdmitSlowpath.Load(),
		BatchSubmits:       m.BatchSubmits.Load(),
		BatchTasks:         m.BatchTasks.Load(),
		BatchDescents:      m.BatchDescents.Load(),
		QueueDepth:         m.queueDepth.Load(),
		QueueDepthPeak:     m.queueDepthPeak.Load(),
		PoolRunning:        m.poolRunning.Load(),
		PoolRunningPeak:    m.poolRunningPeak.Load(),
		InternerResident:   m.internerResident.Load(),
		AdmissionCount:     m.admCount.Load(),
		AdmissionSumNS:     m.admSumNS.Load(),
	}
	for i := range m.admBuckets {
		s.AdmissionBuckets[i] = m.admBuckets[i].Load()
	}
	return s
}

// WriteTo renders the metrics in the Prometheus text exposition format
// (one scheduler per runtime, so the gauges carry no labels). It
// implements io.WriterTo.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	s := m.Snapshot()
	var total int64
	p := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	counter := func(name, help string, v uint64) error {
		if err := p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v); err != nil {
			return err
		}
		return nil
	}
	gauge := func(name, help string, v int64) error {
		return p("# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	steps := []func() error{
		func() error {
			return counter("twe_tasks_submitted_total", "Tasks handed to the scheduler via executeLater/execute.", s.TasksSubmitted)
		},
		func() error {
			return counter("twe_tasks_completed_total", "Task bodies that finished (including spawned tasks).", s.TasksCompleted)
		},
		func() error {
			return counter("twe_tasks_spawned_total", "Spawn operations (effect transfer parent to child).", s.Spawns)
		},
		func() error {
			return counter("twe_tasks_joined_total", "Join operations (effect transfer child to parent).", s.Joins)
		},
		func() error {
			return counter("twe_blocks_total", "Blocking getValue/join entries by running tasks.", s.Blocks)
		},
		func() error {
			return counter("twe_effect_transfers_total", "Blocker publications licensing effect transfer while blocked.", s.Transfers)
		},
		func() error {
			return counter("twe_tasks_cancelled_total", "Futures finished by cancellation (any cause).", s.TasksCancelled)
		},
		func() error {
			return counter("twe_task_panics_total", "Task bodies that panicked and were contained as failures.", s.TaskPanics)
		},
		func() error {
			return counter("twe_deadlines_exceeded_total", "Cancellations caused by an expired per-task deadline.", s.DeadlinesExceeded)
		},
		func() error {
			return counter("twe_dyneff_retries_total", "Dynamic-effects section aborts that retried with backoff.", s.DyneffRetries)
		},
		func() error {
			return counter("twe_dyneff_breaker_trips_total", "Abort-storm circuit-breaker openings in the dyneff registry.", s.DyneffBreakerTrips)
		},
		func() error {
			return counter("twe_pool_panics_total", "Panics contained by a pool worker (runtime-layer bugs).", s.PoolPanics)
		},
		func() error {
			return counter("twe_conflict_checks_total", "Effect-interference predicate invocations by the scheduler.", s.ConflictChecks)
		},
		func() error {
			return counter("twe_conflict_hits_total", "Conflict checks that found interference (task stalled).", s.ConflictHits)
		},
		func() error {
			return counter("twe_admission_scans_total", "Scheduler admission passes (queue scans / tree rechecks).", s.AdmissionScans)
		},
		func() error {
			return counter("twe_tree_node_visits_total", "Tree-scheduler node traversals during insert/check/recheck.", s.TreeNodeVisits)
		},
		func() error {
			return counter("twe_pool_workers_started_total", "Pool worker goroutines launched.", s.WorkersStarted)
		},
		func() error {
			return counter("twe_pool_steals_total", "Tasks a pool worker stole from another worker's deque.", s.PoolSteals)
		},
		func() error {
			return counter("twe_pool_parks_total", "Times a pool worker parked for lack of work.", s.PoolParks)
		},
		func() error {
			return counter("twe_pool_wakeups_total", "Times a parked pool worker was woken to run new work.", s.PoolWakeups)
		},
		func() error {
			return counter("twe_admit_fastpath_total", "Effectful submissions admitted by the lock-free fast path.", s.AdmitFastpath)
		},
		func() error {
			return counter("twe_admit_slowpath_total", "Effectful submissions admitted by the locked slow path.", s.AdmitSlowpath)
		},
		func() error {
			return counter("twe_sched_batch_submits_total", "SubmitBatch calls that reached the scheduler.", s.BatchSubmits)
		},
		func() error {
			return counter("twe_sched_batch_tasks_total", "Futures submitted through SubmitBatch.", s.BatchTasks)
		},
		func() error {
			return counter("twe_sched_batch_descents_total", "Shared-prefix tree descents performed for batched inserts.", s.BatchDescents)
		},
		func() error {
			return gauge("twe_sched_queue_depth", "Tasks submitted but not yet enabled by the scheduler.", s.QueueDepth)
		},
		func() error {
			return gauge("twe_sched_queue_depth_peak", "Peak of twe_sched_queue_depth.", s.QueueDepthPeak)
		},
		func() error {
			return gauge("twe_pool_running", "Pool workers currently holding a parallelism token.", s.PoolRunning)
		},
		func() error {
			return gauge("twe_pool_running_peak", "Peak of twe_pool_running.", s.PoolRunningPeak)
		},
		func() error {
			return gauge("twe_interner_resident", "Effect-interner slots currently occupied.", s.InternerResident)
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return total, err
		}
	}
	// Histogram: cumulative buckets per the exposition format.
	name := "twe_admission_latency_seconds"
	if err := p("# HELP %s Latency from task submission to scheduler admission.\n# TYPE %s histogram\n", name, name); err != nil {
		return total, err
	}
	var cum uint64
	for i, lbl := range admLabels {
		cum += s.AdmissionBuckets[i]
		if err := p("%s_bucket{le=%q} %d\n", name, lbl, cum); err != nil {
			return total, err
		}
	}
	cum += s.AdmissionBuckets[len(admBounds)]
	if err := p("%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return total, err
	}
	if err := p("%s_sum %g\n", name, float64(s.AdmissionSumNS)/1e9); err != nil {
		return total, err
	}
	if err := p("%s_count %d\n", name, s.AdmissionCount); err != nil {
		return total, err
	}
	return total, nil
}
