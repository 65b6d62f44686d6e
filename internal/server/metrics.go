package server

import "pipesched/internal/telemetry"

// serverMetrics is the service-layer metric set, resolved once against
// the telemetry registry backing the pipeline metrics. With no registry
// (telemetry off) every field stays nil and all updates are no-ops —
// the same nil-by-default discipline as the pipeline itself.
type serverMetrics struct {
	admitted    *telemetry.Counter            // pipesched_server_admitted_total
	completed   *telemetry.Counter            // pipesched_server_completed_total
	shed        map[string]*telemetry.Counter // pipesched_server_shed_total{reason=...}
	queueDepth  *telemetry.Gauge              // pipesched_server_queue_depth
	waitHist    *telemetry.Histogram          // pipesched_server_queue_wait_seconds (µs native)
	retries     *telemetry.Counter            // pipesched_server_retries_total
	cacheHits   *telemetry.Counter            // pipesched_server_cache_hits_total
	cacheMisses *telemetry.Counter            // pipesched_server_cache_misses_total
	dedup       *telemetry.Counter            // pipesched_server_dedup_joined_total
	fastPath    *telemetry.Counter            // pipesched_server_breaker_fastpath_total
	panics      *telemetry.Counter            // pipesched_server_worker_panics_total
	transitions map[string]*telemetry.Counter // pipesched_server_breaker_transitions_total{to=...}
	schedModes  map[string]*telemetry.Counter // pipesched_server_sched_mode_total{mode=...}

	cacheEntries    *telemetry.Gauge   // pipesched_server_cache_entries
	cacheEvictions  *telemetry.Counter // pipesched_server_cache_evictions_total
	diskHits        *telemetry.Counter // pipesched_server_diskcache_hits_total
	diskEntries     *telemetry.Gauge   // pipesched_server_diskcache_entries
	diskRecovered   *telemetry.Counter // pipesched_server_diskcache_recovered_total
	diskQuarantined *telemetry.Counter // pipesched_server_diskcache_quarantined_total
}

// shedReasons and breakerStates pre-register every label value so the
// hot path never touches the registry lock.
var (
	shedReasons   = []string{"full", "deadline", "draining"}
	breakerStates = []string{"open", "half_open", "closed"}
	// schedKinds labels requests by mode family only (the parameters —
	// k, window×width — would make the label set unbounded).
	schedKinds = []string{"paper", "minreg-lex", "minreg-k", "scoreboard"}
)

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	m := &serverMetrics{
		shed:        map[string]*telemetry.Counter{},
		transitions: map[string]*telemetry.Counter{},
		schedModes:  map[string]*telemetry.Counter{},
	}
	if reg == nil {
		return m
	}
	m.admitted = reg.Counter("pipesched_server_admitted_total", "Requests accepted into the work queue.")
	m.completed = reg.Counter("pipesched_server_completed_total", "Requests that terminated (result or typed error).")
	m.queueDepth = reg.Gauge("pipesched_server_queue_depth", "Requests waiting in the bounded queue.")
	m.waitHist = reg.Histogram("pipesched_server_queue_wait_seconds", "Queue wait per executed request.", 1e-6)
	m.retries = reg.Counter("pipesched_server_retries_total", "Transient stage faults retried with backoff.")
	m.cacheHits = reg.Counter("pipesched_server_cache_hits_total", "Requests served from the result cache.")
	m.cacheMisses = reg.Counter("pipesched_server_cache_misses_total", "Requests that missed the result cache.")
	m.dedup = reg.Counter("pipesched_server_dedup_joined_total", "Requests collapsed onto an identical in-flight compilation.")
	m.fastPath = reg.Counter("pipesched_server_breaker_fastpath_total", "Requests served the Heuristic rung because their circuit was open.")
	m.panics = reg.Counter("pipesched_server_worker_panics_total", "Panics caught by the worker's last-resort recover.")
	m.cacheEntries = reg.Gauge("pipesched_server_cache_entries", "Entries resident in the in-memory result LRU.")
	m.cacheEvictions = reg.Counter("pipesched_server_cache_evictions_total", "Result-cache entries evicted by LRU pressure.")
	m.diskHits = reg.Counter("pipesched_server_diskcache_hits_total", "LRU misses served from the persistent cache tier.")
	m.diskEntries = reg.Gauge("pipesched_server_diskcache_entries", "Entries resident in the persistent cache tier.")
	m.diskRecovered = reg.Counter("pipesched_server_diskcache_recovered_total", "Persistent cache entries recovered by the startup scan.")
	m.diskQuarantined = reg.Counter("pipesched_server_diskcache_quarantined_total", "Corrupt or truncated persistent cache entries quarantined.")
	for _, r := range shedReasons {
		m.shed[r] = reg.Counter("pipesched_server_shed_total", "Requests rejected by admission control.", "reason", r)
	}
	for _, st := range breakerStates {
		m.transitions[st] = reg.Counter("pipesched_server_breaker_transitions_total", "Circuit breaker state transitions.", "to", st)
	}
	for _, k := range schedKinds {
		m.schedModes[k] = reg.Counter("pipesched_server_sched_mode_total", "Requests by scheduler mode family.", "mode", k)
	}
	return m
}

// The queue-wait window answers "what is the p95 wait right now?" for
// deadline-aware load shedding. Below waitWindowMinSamples samples the
// estimate is 0 and shedding stays off.
const waitWindowSize = 128
const waitWindowMinSamples = 8
