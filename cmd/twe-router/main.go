// Command twe-router is the twe-cluster routing control plane
// (internal/cluster, DESIGN.md §16): a thin proxy that partitions the
// store across a fleet of twe-serve shard processes by top-level
// effect region. Each request's declared effect routes it to the shard
// owning its region (session effects rewritten into per-upstream
// namespaces), cross-shard effects run through two-phase
// prepare/commit rounds on each client session's own member connections
// (or a serial stop-the-world lane with -cross-lane serial), and
// everything else lands in the global lane.
//
// Typical use:
//
//	twe-serve -shard-id 0 -advertise 127.0.0.1 -addr 127.0.0.1:7270 &
//	twe-serve -shard-id 1 -advertise 127.0.0.1 -addr 127.0.0.1:7271 &
//	twe-router -addr 127.0.0.1:7280 -members 127.0.0.1:7270,127.0.0.1:7271
//	twe-load   -addr 127.0.0.1:7280 -conns 64 -requests 200
//
// -control-addr exposes the control plane over HTTP: /cluster (the
// JSON fleet snapshot twe-load -cluster-url consumes) and /healthz
// (503 naming the first unhealthy member). -member-debug wires the
// members' /debug/twe endpoints into the router's health probes, which
// also verify each member reports the shard id the router expects.
//
// The router drains gracefully on SIGINT/SIGTERM: it stops accepting,
// flushes every response still owed, shuts the coordinator down, and
// exits non-zero if sessions were still wedged at the timeout. Shards
// are separate processes — drain them after the router.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"twe/internal/cluster"
)

var (
	addrFlag        = flag.String("addr", "127.0.0.1:0", "TCP listen address for clients (port 0 = ephemeral)")
	addrFileFlag    = flag.String("addr-file", "", "write the bound address to this file (for scripts using port 0)")
	membersFlag     = flag.String("members", "", "comma-separated twe-serve shard addresses, in shard-id order")
	memberDebugFlag = flag.String("member-debug", "", "comma-separated member debug-mux base URLs (http://host:port), parallel to -members; enables health probes")
	crossLaneFlag   = flag.String("cross-lane", "2pc", "cross-shard lane: 2pc (two-phase prepare/commit) or serial (stop-the-world)")
	probeFlag       = flag.Duration("probe-every", 0, "health-probe period when -member-debug is set (0 = 500ms default)")
	controlFlag     = flag.String("control-addr", "", "HTTP listen address for /cluster and /healthz (empty = disabled)")
	controlFileFlag = flag.String("control-addr-file", "", "write the bound control address to this file")
	drainFlag       = flag.Duration("drain-timeout", 10*time.Second, "graceful drain bound")
)

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func main() {
	flag.Parse()
	members := splitList(*membersFlag)
	if len(members) == 0 {
		fmt.Fprintln(os.Stderr, "twe-router: -members is required (comma-separated shard addresses)")
		os.Exit(2)
	}
	r, err := cluster.New(cluster.Config{
		Shards:     members,
		ShardDebug: splitList(*memberDebugFlag),
		CrossLane:  *crossLaneFlag,
		ProbeEvery: *probeFlag,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "twe-router:", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twe-router:", err)
		os.Exit(2)
	}
	fmt.Printf("twe-router: listening on %s (members=%d cross-lane=%s)\n",
		ln.Addr(), r.Members(), *crossLaneFlag)
	if *addrFileFlag != "" {
		if err := os.WriteFile(*addrFileFlag, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "twe-router:", err)
			os.Exit(2)
		}
	}

	var cln net.Listener
	if *controlFlag != "" {
		cln, err = net.Listen("tcp", *controlFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "twe-router: control listen:", err)
			os.Exit(2)
		}
		if *controlFileFlag != "" {
			if err := os.WriteFile(*controlFileFlag, []byte(cln.Addr().String()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "twe-router:", err)
				os.Exit(2)
			}
		}
		fmt.Printf("twe-router: control plane on http://%s/cluster (also /healthz)\n", cln.Addr())
		go func() { _ = http.Serve(cln, r.Handler()) }()
	}

	r.Start(ln)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("twe-router: draining...")

	code := 0
	if err := r.Drain(*drainFlag); err != nil {
		fmt.Fprintln(os.Stderr, "twe-router:", err)
		code = 1
	}
	if cln != nil {
		cln.Close()
	}
	st := r.Stats()
	snap := r.Snapshot()
	var fwd, prep, srv int64
	for _, m := range snap.Members {
		fwd += m.Fwd
		prep += m.Prep
		srv += m.Srv
	}
	fmt.Printf("twe-router: drained: conns=%d requests=%d served=%d shed=%d busy=%d cancelled=%d rejected=%d errors=%d disconnects=%d fwd=%d prep=%d member-served=%d inflight=%d\n",
		st.ConnsAccepted, st.Requests, st.Served, st.Shed, st.Busy, st.Cancelled, st.Rejected, st.Errors,
		st.Disconnects, fwd, prep, srv, st.Inflight)
	if st.Inflight != 0 {
		fmt.Fprintf(os.Stderr, "twe-router: dirty drain: in-flight gauge leaked: %d\n", st.Inflight)
		code = 1
	}
	os.Exit(code)
}
