// Command twe-serve runs the TWE runtime behind a TCP service boundary
// (internal/svc): clients declare each request's effect on the wire and
// the effect scheduler is the admission-control and serialization layer.
//
// Typical use:
//
//	twe-serve -sched tree -par 4 -isolcheck -addr 127.0.0.1:7270 &
//	twe-load  -addr 127.0.0.1:7270 -conns 64 -requests 200
//
// The daemon drains gracefully on SIGINT/SIGTERM: it stops accepting,
// serves everything already admitted, shuts the runtime down, and exits
// non-zero if the drain audit fails (runtime not quiesced, leaked
// in-flight gauge, isolation violations, or served-accounting mismatch).
// -metrics-addr exposes an HTTP debug mux: Prometheus text metrics
// (/metrics), the effect-contention and request-tracing snapshot
// (/debug/twe, DESIGN.md §14), Go profiling (/debug/pprof/) and expvar
// (/debug/vars). -req-trace turns on per-request span tracing;
// -trace writes a Chrome trace of the serving runtime at exit. Without
// -trace, -req-trace, -eventlog or -trace-events the daemon keeps only
// its metrics: no event ring, no wait-for attribution, no contention
// profile (DESIGN.md §7).
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"twe/internal/sched"
	"twe/internal/svc"
)

var (
	addrFlag        = flag.String("addr", "127.0.0.1:0", "TCP listen address (port 0 = ephemeral)")
	addrFileFlag    = flag.String("addr-file", "", "write the bound address to this file (for scripts using port 0)")
	schedFlag       = flag.String("sched", "tree", "scheduler: "+sched.Usage())
	parFlag         = flag.Int("par", 4, "pool parallelism")
	shardsFlag      = flag.Int("shards", 8, "store shard count")
	keysFlag        = flag.Int("keys", 256, "store key count")
	maxInflightFlag = flag.Int("max-inflight", 0, "admitted-but-unresolved bound; excess gets busy (0 = unbounded)")
	deadlineFlag    = flag.Duration("deadline", 0, "per-request deadline; late requests are shed (0 = none)")
	isolFlag        = flag.Bool("isolcheck", false, "attach the isolation-oracle monitor")
	reqTraceFlag    = flag.Bool("req-trace", false, "per-request span tracing + phase histograms + contention attribution")
	traceEventsFlag = flag.Int("trace-events", 0, "tracer ring capacity per shard (0 = no ring unless -trace/-req-trace/-eventlog is set: then 4096, or 16384 with -req-trace)")
	traceFlag       = flag.String("trace", "", "write a Chrome trace here at exit")
	elogFlag        = flag.String("eventlog", "", "write the JSONL event log here at exit, for twe-spec -refine")
	metricsFlag     = flag.String("metrics-addr", "", "HTTP listen address for /metrics (empty = disabled)")
	metricsFileFlag = flag.String("metrics-addr-file", "", "write the bound metrics address to this file")
	drainFlag       = flag.Duration("drain-timeout", 10*time.Second, "graceful drain bound")
	shardIDFlag     = flag.Int("shard-id", -1, "stable shard id inside a twe-cluster fleet (-1 = standalone)")
	advertiseFlag   = flag.String("advertise", "", "address published to the cluster control plane (empty = listen address)")
	prepareFlag     = flag.Duration("prepare-timeout", 0, "cross-shard prepared-hold bound before self-abort (0 = 5s default)")
	holdFlag        = flag.Duration("hold", 0, "artificial per-op service time (sleep at body start); makes cluster benches latency-bound on small machines")
)

func main() {
	flag.Parse()
	cfg := svc.Config{
		Addr:        *addrFlag,
		Sched:       *schedFlag,
		Par:         *parFlag,
		Shards:      *shardsFlag,
		Keys:        *keysFlag,
		MaxInflight: *maxInflightFlag,
		Deadline:    *deadlineFlag,
		Isolcheck:   *isolFlag,
		ReqTrace:    *reqTraceFlag,
		TraceEvents: *traceEventsFlag,
		TaskLog:     *elogFlag != "",
		ShardID:     *shardIDFlag,
		Advertise:   *advertiseFlag,
		PrepareHold: *prepareFlag,
	}
	if *traceFlag != "" && cfg.TraceEvents <= 0 && !cfg.ReqTrace {
		cfg.TraceEvents = 4096 // the Chrome trace needs the event ring
	}
	if d := *holdFlag; d > 0 {
		cfg.Hold = func(string, int) { time.Sleep(d) }
	}
	s, err := svc.Start(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twe-serve:", err)
		os.Exit(2)
	}
	fmt.Printf("twe-serve: listening on %s (sched=%s par=%d shards=%d keys=%d max-inflight=%d deadline=%v shard-id=%d)\n",
		s.Addr(), *schedFlag, *parFlag, *shardsFlag, *keysFlag, *maxInflightFlag, *deadlineFlag, s.ShardID())
	if *addrFileFlag != "" {
		if err := os.WriteFile(*addrFileFlag, []byte(s.Addr()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "twe-serve:", err)
			os.Exit(2)
		}
	}

	var mln net.Listener
	if *metricsFlag != "" {
		var err error
		mln, err = net.Listen("tcp", *metricsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "twe-serve: metrics listen:", err)
			os.Exit(2)
		}
		if *metricsFileFlag != "" {
			if err := os.WriteFile(*metricsFileFlag, []byte(mln.Addr().String()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "twe-serve:", err)
				os.Exit(2)
			}
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := s.WriteMetrics(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		// Contention/tracing snapshot, profiling and expvar share the mux
		// (the default ServeMux gets these for free; a custom mux must
		// mount them explicitly).
		mux.Handle("/debug/twe", s.DebugHandler(10))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
		fmt.Printf("twe-serve: metrics on http://%s/metrics (also /debug/twe, /debug/pprof/, /debug/vars)\n", mln.Addr())
		go func() { _ = http.Serve(mln, mux) }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("twe-serve: draining...")

	code := 0
	if err := s.Drain(*drainFlag); err != nil {
		fmt.Fprintln(os.Stderr, "twe-serve:", err)
		code = 1
	}
	// The debug mux outlives the drain on purpose (orchestrators scrape
	// final metrics); close its listener only once the audit is done.
	if mln != nil {
		mln.Close()
	}
	st := s.Stats()
	fmt.Printf("twe-serve: drained: conns=%d (v1=%d v2=%d) requests=%d served=%d shed=%d busy=%d cancelled=%d rejected=%d errors=%d disconnects=%d effcache=%d/%d effregs=%d inflight-peak=%d\n",
		st.ConnsAccepted, st.V1Conns, st.V2Conns, st.Requests, st.Served, st.Shed, st.Busy, st.Cancelled, st.Rejected, st.Errors,
		st.Disconnects, st.EffHits, st.EffHits+st.EffMisses, st.EffRegs, st.InflightPeak)

	if *traceFlag != "" {
		f, err := os.Create(*traceFlag)
		if err == nil {
			err = s.Tracer().WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "twe-serve: trace:", err)
			code = 1
		} else {
			fmt.Printf("twe-serve: wrote trace to %s\n", *traceFlag)
		}
	}
	if *elogFlag != "" {
		f, err := os.Create(*elogFlag)
		if err == nil {
			err = s.Tracer().WriteEventLog(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "twe-serve: eventlog:", err)
			code = 1
		} else {
			fmt.Printf("twe-serve: wrote event log to %s (validate with twe-spec -refine)\n", *elogFlag)
		}
	}
	os.Exit(code)
}
