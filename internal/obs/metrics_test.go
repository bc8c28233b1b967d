package obs

import (
	"strings"
	"testing"
)

// TestPrometheusGolden pins the full text exposition output for a known
// metric state; twe-trace -checkmetrics validates the same invariants
// structurally on real dumps.
func TestPrometheusGolden(t *testing.T) {
	var m Metrics
	m.TasksSubmitted.Store(10)
	m.TasksCompleted.Store(9)
	m.Spawns.Store(3)
	m.Joins.Store(3)
	m.Blocks.Store(4)
	m.Transfers.Store(4)
	m.TasksCancelled.Store(2)
	m.TaskPanics.Store(1)
	m.DeadlinesExceeded.Store(1)
	m.DyneffRetries.Store(6)
	m.DyneffBreakerTrips.Store(1)
	m.PoolPanics.Store(0)
	m.ConflictChecks.Store(100)
	m.ConflictHits.Store(7)
	m.AdmissionScans.Store(20)
	m.TreeNodeVisits.Store(55)
	m.WorkersStarted.Store(2)
	m.PoolSteals.Store(11)
	m.PoolParks.Store(13)
	m.PoolWakeups.Store(12)
	m.AdmitSlowpath.Store(8)
	m.BatchSubmits.Store(3)
	m.BatchTasks.Store(48)
	m.BatchDescents.Store(5)
	m.SetQueueDepth(5)
	m.SetQueueDepth(2) // peak stays 5
	m.SetPoolRunning(4)
	m.SetPoolRunning(1) // peak stays 4
	m.SetInternerResident(17)
	m.ObserveAdmission(500) // ≤1µs bucket
	m.ObserveAdmission(2e4) // ≤0.0001 bucket
	m.ObserveAdmission(5e9) // +Inf bucket
	m.ObserveAdmission(-3)  // clamped to 0 → first bucket

	var buf strings.Builder
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if n != int64(len(got)) {
		t.Errorf("WriteTo returned %d, wrote %d bytes", n, len(got))
	}
	const want = `# HELP twe_tasks_submitted_total Tasks handed to the scheduler via executeLater/execute.
# TYPE twe_tasks_submitted_total counter
twe_tasks_submitted_total 10
# HELP twe_tasks_completed_total Task bodies that finished (including spawned tasks).
# TYPE twe_tasks_completed_total counter
twe_tasks_completed_total 9
# HELP twe_tasks_spawned_total Spawn operations (effect transfer parent to child).
# TYPE twe_tasks_spawned_total counter
twe_tasks_spawned_total 3
# HELP twe_tasks_joined_total Join operations (effect transfer child to parent).
# TYPE twe_tasks_joined_total counter
twe_tasks_joined_total 3
# HELP twe_blocks_total Blocking getValue/join entries by running tasks.
# TYPE twe_blocks_total counter
twe_blocks_total 4
# HELP twe_effect_transfers_total Blocker publications licensing effect transfer while blocked.
# TYPE twe_effect_transfers_total counter
twe_effect_transfers_total 4
# HELP twe_tasks_cancelled_total Futures finished by cancellation (any cause).
# TYPE twe_tasks_cancelled_total counter
twe_tasks_cancelled_total 2
# HELP twe_task_panics_total Task bodies that panicked and were contained as failures.
# TYPE twe_task_panics_total counter
twe_task_panics_total 1
# HELP twe_deadlines_exceeded_total Cancellations caused by an expired per-task deadline.
# TYPE twe_deadlines_exceeded_total counter
twe_deadlines_exceeded_total 1
# HELP twe_dyneff_retries_total Dynamic-effects section aborts that retried with backoff.
# TYPE twe_dyneff_retries_total counter
twe_dyneff_retries_total 6
# HELP twe_dyneff_breaker_trips_total Abort-storm circuit-breaker openings in the dyneff registry.
# TYPE twe_dyneff_breaker_trips_total counter
twe_dyneff_breaker_trips_total 1
# HELP twe_pool_panics_total Panics contained by a pool worker (runtime-layer bugs).
# TYPE twe_pool_panics_total counter
twe_pool_panics_total 0
# HELP twe_conflict_checks_total Effect-interference predicate invocations by the scheduler.
# TYPE twe_conflict_checks_total counter
twe_conflict_checks_total 100
# HELP twe_conflict_hits_total Conflict checks that found interference (task stalled).
# TYPE twe_conflict_hits_total counter
twe_conflict_hits_total 7
# HELP twe_admission_scans_total Scheduler admission passes (queue scans / tree rechecks).
# TYPE twe_admission_scans_total counter
twe_admission_scans_total 20
# HELP twe_tree_node_visits_total Tree-scheduler node traversals during insert/check/recheck.
# TYPE twe_tree_node_visits_total counter
twe_tree_node_visits_total 55
# HELP twe_pool_workers_started_total Pool worker goroutines launched.
# TYPE twe_pool_workers_started_total counter
twe_pool_workers_started_total 2
# HELP twe_pool_steals_total Tasks a pool worker stole from another worker's deque.
# TYPE twe_pool_steals_total counter
twe_pool_steals_total 11
# HELP twe_pool_parks_total Times a pool worker parked for lack of work.
# TYPE twe_pool_parks_total counter
twe_pool_parks_total 13
# HELP twe_pool_wakeups_total Times a parked pool worker was woken to run new work.
# TYPE twe_pool_wakeups_total counter
twe_pool_wakeups_total 12
# HELP twe_admit_slowpath_total Effectful submissions admitted through the tree's locked descent.
# TYPE twe_admit_slowpath_total counter
twe_admit_slowpath_total 8
# HELP twe_sched_batch_submits_total SubmitBatch calls that reached the scheduler.
# TYPE twe_sched_batch_submits_total counter
twe_sched_batch_submits_total 3
# HELP twe_sched_batch_tasks_total Futures submitted through SubmitBatch.
# TYPE twe_sched_batch_tasks_total counter
twe_sched_batch_tasks_total 48
# HELP twe_sched_batch_descents_total Shared-prefix tree descents performed for batched inserts.
# TYPE twe_sched_batch_descents_total counter
twe_sched_batch_descents_total 5
# HELP twe_sched_queue_depth Tasks submitted but not yet enabled by the scheduler.
# TYPE twe_sched_queue_depth gauge
twe_sched_queue_depth 2
# HELP twe_sched_queue_depth_peak Peak of twe_sched_queue_depth.
# TYPE twe_sched_queue_depth_peak gauge
twe_sched_queue_depth_peak 5
# HELP twe_pool_running Pool workers currently holding a parallelism token.
# TYPE twe_pool_running gauge
twe_pool_running 1
# HELP twe_pool_running_peak Peak of twe_pool_running.
# TYPE twe_pool_running_peak gauge
twe_pool_running_peak 4
# HELP twe_interner_resident Effect-interner slots currently occupied.
# TYPE twe_interner_resident gauge
twe_interner_resident 17
# HELP twe_admission_latency_seconds Latency from task submission to scheduler admission.
# TYPE twe_admission_latency_seconds histogram
twe_admission_latency_seconds_bucket{le="1e-06"} 2
twe_admission_latency_seconds_bucket{le="1e-05"} 2
twe_admission_latency_seconds_bucket{le="0.0001"} 3
twe_admission_latency_seconds_bucket{le="0.001"} 3
twe_admission_latency_seconds_bucket{le="0.01"} 3
twe_admission_latency_seconds_bucket{le="0.1"} 3
twe_admission_latency_seconds_bucket{le="1"} 3
twe_admission_latency_seconds_bucket{le="+Inf"} 4
twe_admission_latency_seconds_sum 5.0000205
twe_admission_latency_seconds_count 4
`
	if got != want {
		t.Errorf("Prometheus golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshotAndHitRate(t *testing.T) {
	var m Metrics
	m.ConflictChecks.Store(200)
	m.ConflictHits.Store(50)
	s := m.Snapshot()
	if got := s.ConflictHitRate(); got != 0.25 {
		t.Errorf("ConflictHitRate = %v, want 0.25", got)
	}
	if (Snapshot{}).ConflictHitRate() != 0 {
		t.Error("zero snapshot hit rate != 0")
	}
}

func TestGaugePeaksMonotonic(t *testing.T) {
	var m Metrics
	for _, n := range []int64{3, 7, 2, 6, 0} {
		m.SetQueueDepth(n)
		m.SetPoolRunning(n)
	}
	s := m.Snapshot()
	if s.QueueDepth != 0 || s.QueueDepthPeak != 7 {
		t.Errorf("queue depth = %d peak %d, want 0 peak 7", s.QueueDepth, s.QueueDepthPeak)
	}
	if s.PoolRunning != 0 || s.PoolRunningPeak != 7 {
		t.Errorf("pool running = %d peak %d, want 0 peak 7", s.PoolRunning, s.PoolRunningPeak)
	}
}

func TestAdmissionBucketBoundaries(t *testing.T) {
	var m Metrics
	// One observation exactly on each upper bound, plus one past the end.
	for _, b := range admBounds {
		m.ObserveAdmission(b)
	}
	m.ObserveAdmission(admBounds[len(admBounds)-1] + 1)
	s := m.Snapshot()
	for i := range admBounds {
		if s.AdmissionBuckets[i] != 1 {
			t.Errorf("bucket %d = %d, want 1 (bound is inclusive)", i, s.AdmissionBuckets[i])
		}
	}
	if inf := s.AdmissionBuckets[len(admBounds)]; inf != 1 {
		t.Errorf("+Inf bucket = %d, want 1", inf)
	}
	if s.AdmissionCount != uint64(len(admBounds))+1 {
		t.Errorf("count = %d, want %d", s.AdmissionCount, len(admBounds)+1)
	}
}
