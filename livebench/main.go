// Command livebench is the rocks live-plane benchmark. It boots a real
// frontend (loopback HTTP, DHCP wire packets on the bus, WAL on) and
// drives one named workload through it:
//
//	reinstall        shoot-node every node of an integrated fleet once
//	integrate        insert-ethers and first install of a blank fleet, serially
//	reinstall-relay  reinstall, with peer relays serving package bodies
//	discover         a storm of blank MACs through dhcpd → syslog → insert-ethers
//
// The reinstall workloads and discover run a closed loop of two in-flight
// nodes; integrate powers its machines on one at a time, as insert-ethers
// integration does. A run times passes while the next one fits in
// -seconds (two to eight): a reinstall workload integrates its fleet once
// and shoot-nodes all of it in every pass, integrate and discover set up a
// fresh frontend for each. It checks every pass's outputs, and prints one
// JSON object as the last line of standard output. With -trace 0 it
// carries the end-to-end metrics; with -trace 1 the per-layer metrics,
// measured from outside the program (lifecycle events, /metrics deltas,
// client-side HTTP spans), and the traced run also writes its spans, the
// per-layer table and CPU profiles under .bench_build/trace/.
//
// Run it through bench.sh, which builds it and keeps all output in the
// checkout:
//
//	bash livebench/bench.sh --workload integrate --seed 7 --seconds 55 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"rocks/internal/lifecycle"
)

// workload is one named input set: how many nodes a pass drives and which
// path through the system they take.
type workload struct {
	name      string
	nodes     int  // nodes per pass: fixed, because per-node cost grows with the fleet, and ≥ 200 so ≥ 10 lie beyond p95
	relays    bool // Config.EnableRelays
	discover  bool // blank-MAC discovery storm instead of a fleet reinstall
	integrate bool // serial first integration of a blank fleet instead of a reinstall
	// Lifecycle events each node publishes during set-up and during one
	// pass: the measured count plus headroom (relay demotions vary).
	setupEvents, passEvents int
	why                     string
}

// eventSlack covers events no node accounts for (frontend start-up,
// relay registry changes).
const eventSlack = 64

// subscription is the buffer a pass's lifecycle subscription needs to
// hold every event of the pass.
func (w workload) subscription() int {
	return w.nodes*w.passEvents + eventSlack
}

// ringSize is the lifecycle ring a frontend needs to keep every event of
// its set-up and of every pass run on it: the production default when
// they fit.
func (w workload) ringSize() int {
	n := w.nodes*w.setupEvents + w.passesPerSetup()*w.subscription()
	if n <= lifecycle.DefaultRingSize {
		return 0
	}
	return n
}

// freshPerPass reports whether every pass needs a frontend of its own:
// one whose database does not yet hold the pass's nodes.
func (w workload) freshPerPass() bool {
	return w.discover || w.integrate
}

// passesPerSetup is how many passes one frontend serves.
func (w workload) passesPerSetup() int {
	if w.freshPerPass() {
		return 1
	}
	return maxPasses
}

var workloads = []workload{
	{name: "reinstall", nodes: 200, setupEvents: 11, passEvents: 9,
		why: "the paper's Table I primitive: the package phase dominates, so dist, rpm and the installer do the work"},
	{name: "integrate", nodes: 200, integrate: true, setupEvents: 0, passEvents: 11,
		why: "the paper's §6.4 integration: insert-ethers binds each blank node, which then installs; clusterdb writes, WAL, reports and DHCP beside the install path"},
	{name: "reinstall-relay", nodes: 200, relays: true, setupEvents: 12, passEvents: 13,
		why: "bypass twin of reinstall: peers serve most package bodies, so frontend dist serving drops out"},
	{name: "discover", nodes: 2000, discover: true, setupEvents: 0, passEvents: 2,
		why: "writes beside reads: clusterdb inserts, WAL, coalesced reports and the CGI read path; dist idle"},
}

// outDir holds everything a run writes (temp state, spans, profiles),
// relative to the checkout root the benchmark runs from.
const outDir = ".bench_build"

// inflight is the closed loop's width: two nodes in flight from one
// process, the core count of the host the benchmark was sized on.
const inflight = 2

// inFlight is how many nodes a workload keeps in flight. Integration is
// serial, as IntegrateNodes does it: insert-ethers names nodes in
// power-on order so that names map to physical locations.
func (w workload) inFlight() int {
	if w.integrate {
		return 1
	}
	return inflight
}

// minPasses is the fewest passes a run makes, however long one takes;
// maxPasses the most, which bounds the events a frontend must keep.
const (
	minPasses = 2
	maxPasses = 8
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: reinstall, integrate, reinstall-relay or discover")
	seed := flag.Int64("seed", 1, "workload seed: picks hardware mix order, MACs and shoot order")
	seconds := flag.Int("seconds", 55, "seconds a run measures for, set-up included: passes repeat while the next one fits (at least two)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	var w workload
	for _, cand := range workloads {
		if cand.name == *name {
			w = cand
		}
	}
	if w.name == "" {
		fmt.Fprintf(os.Stderr, "livebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// passSummary is what a run keeps of one pass.
type passSummary struct {
	Setups    []float64 // seconds: the set-up this pass ran on, if it was new
	Wall      float64   // seconds
	CPU       float64   // seconds
	HeapMB    float64
	P50, P95  float64 // ms, node latency of the nodes that passed
	Attempted int
	Completed int
	Failed    int
	Problems  []string
	NoAcks    int
	Layers    map[string]float64 // traced passes only
}

// runner holds a run's current frontend across its passes.
type runner struct {
	w    workload
	seed int64
	tmp  string
	f    *frontend
	tr   *tracer // traced runs
}

// run measures one workload: passes on a frontend set up once (reinstall
// workloads) or afresh for each pass (integrate, discover), in this
// process, while the next pass is predicted to end within budget, set-up
// included. So a run's length stays fixed whether the program gets faster
// (more passes) or slower (fewer). A traced run alternates an untraced and
// a traced pass on the same seed.
func run(w workload, seed int64, budget time.Duration, traced bool) (result, error) {
	r := &runner{w: w, seed: seed, tmp: filepath.Join(outDir, "tmp")}
	if err := os.MkdirAll(r.tmp, 0o755); err != nil {
		return result{}, err
	}
	defer r.close()
	want, step := minPasses, 1
	if traced {
		if err := os.MkdirAll(traceDir(w, seed), 0o755); err != nil {
			return result{}, err
		}
		r.tr = newTracer()
		want, step = 2*minPasses, 2
	}
	began := time.Now()
	var plain, withTrace []passSummary
	var last time.Duration
	for i := 0; i < maxPasses && (i < want || i%step != 0 || time.Since(began)+time.Duration(step)*last <= budget); i++ {
		t0 := time.Now()
		tracedPass := traced && i%2 == 1
		s, err := r.pass(i/step, tracedPass)
		if err != nil {
			return result{}, fmt.Errorf("pass %d: %w", i, err)
		}
		last = time.Since(t0)
		if tracedPass {
			fmt.Printf("traced ")
			withTrace = append(withTrace, s)
		} else {
			if traced {
				fmt.Printf("untraced ")
			}
			plain = append(plain, s)
		}
		printPass(w, i, s)
	}
	if traced {
		return reportTraced(w, seed, plain, withTrace)
	}
	res := endToEnd(plain)
	printMetrics(w, seed, res, plain)
	return res, nil
}

// pass runs the round-th pass of the run's seed, on a fresh frontend when
// the workload sets up per pass or none is up yet. It reads the live heap
// once the pass's own records are gone.
func (r *runner) pass(round int, traced bool) (passSummary, error) {
	var setups []float64
	if r.f == nil || r.w.freshPerPass() {
		r.close()
		f, err := setUp(r.w, r.seed, r.tmp)
		if err != nil {
			return passSummary{}, err
		}
		r.f = f
		setups = []float64{f.setup.Seconds()}
	}
	s, err := r.measure(round, traced)
	s.Setups, s.HeapMB = setups, liveHeapMB()
	return s, err
}

// measure times one pass and summarizes it; a traced pass also reports
// its per-layer metrics and writes its spans and CPU profile.
func (r *runner) measure(round int, traced bool) (passSummary, error) {
	var hooks phaseHooks
	var prof *profile
	if traced {
		prof = &profile{path: filepath.Join(traceDir(r.w, r.seed), fmt.Sprintf("cpu-pass%d.pprof", round))}
		hooks = r.tr.hooks(prof)
	}
	p, err := r.f.pass(r.w, r.seed+int64(round)*1000003, hooks)
	if err != nil {
		return passSummary{}, err
	}
	lat := append([]float64(nil), p.latencies...)
	sort.Float64s(lat)
	s := passSummary{Wall: p.wall.Seconds(), CPU: p.cpu.Seconds(), P50: quantile(lat, 0.50), P95: quantile(lat, 0.95),
		Attempted: p.attempted, Completed: p.completed, Failed: p.failed, Problems: p.problems, NoAcks: p.noAcks}
	if traced {
		if prof.err != nil {
			return s, fmt.Errorf("CPU profile: %w", prof.err)
		}
		hs, dials := r.tr.take()
		var spans []span
		s.Layers = layerMetrics(r.w, p, hs, dials, round, &spans)
		if err := writeSpans(filepath.Join(traceDir(r.w, r.seed), fmt.Sprintf("spans-pass%d.jsonl", round)), spans); err != nil {
			return s, err
		}
	}
	return s, nil
}

func (r *runner) close() {
	if r.f != nil {
		r.f.close()
		r.f = nil
	}
}

// endToEnd folds passes into the end-to-end metrics: each is the median
// across passes of that pass's figure (set-up across every set-up). A
// host's slow spell of a few seconds so moves one pass's percentiles, not
// the run's.
func endToEnd(passes []passSummary) result {
	var setups, rates, cpus, heaps, p50s, p95s []float64
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range passes {
		setups = append(setups, p.Setups...)
		rates = append(rates, float64(p.Completed)/p.Wall)
		cpus = append(cpus, p.CPU*1000/float64(p.Attempted))
		heaps = append(heaps, p.HeapMB)
		p50s = append(p50s, p.P50)
		p95s = append(p95s, p.P95)
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		if len(p.Problems) > 0 {
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["nodes_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["node_latency_p50_ms"] = metric{median(p50s), "ms"}
	res.Metrics["node_latency_p95_ms"] = metric{median(p95s), "ms"}
	res.Metrics["cpu_ms_per_node"] = metric{median(cpus), "ms"}
	res.Metrics["live_heap_mb"] = metric{median(heaps), "MB"}
	return res
}

func printPass(w workload, i int, p passSummary) {
	setup := "reused set-up"
	if len(p.Setups) > 0 {
		setup = fmt.Sprintf("setup %.3fs", p.Setups[0])
	}
	fmt.Printf("%s pass %d: %s, %d/%d nodes in %.3fs, p50 %.2fms, p95 %.2fms, cpu %.1fms/node, heap %.2fMB\n",
		w.name, i, setup, p.Completed, p.Attempted, p.Wall, p.P50, p.P95,
		p.CPU*1000/float64(p.Attempted), p.HeapMB)
	for _, pr := range p.Problems {
		fmt.Printf("  check failed: %s\n", pr)
	}
}

// printProvenance prints where and how a run measured: host, nproc, Go
// version, commit, command, seed and the workload's parameters.
func printProvenance(w workload, seed int64, passes int) {
	host, _ := os.Hostname()
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("host %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("command: bash livebench/bench.sh %s\n", strings.Join(os.Args[1:], " "))
	fmt.Printf("workload %s, seed %d: %d passes of %d nodes, closed loop of %d in flight (%s)\n",
		w.name, seed, passes, w.nodes, w.inFlight(), w.why)
}

// printMetrics prints the run's provenance and its metrics with units.
func printMetrics(w workload, seed int64, res result, passes []passSummary) {
	printProvenance(w, seed, len(passes))
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-40s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  %-40s %14.4f (%d of %d nodes)\n", "failed_frac", frac, res.Failed, res.Attempted)
	noAcks := 0
	for _, p := range passes {
		noAcks += p.NoAcks
	}
	if noAcks > 0 {
		fmt.Printf("  %d node(s) failed with an OFFER whose REQUEST got no ACK; see livebench/README.md\n", noAcks)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile reads the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
