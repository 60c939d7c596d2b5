package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"rocks/internal/lifecycle"
)

// smokePass sets one frontend up and runs passes of a workload on it at a
// tiny node count in-process, tracing the last, so harness rot fails in
// seconds instead of a full run. A failed check whose reason does not
// contain known (a known program defect) fails the test.
func smokePass(t *testing.T, name string, nodes, passes int, known string) (passResult, map[string]float64) {
	t.Helper()
	var w workload
	for _, cand := range workloads {
		if cand.name == name {
			w = cand
		}
	}
	w.nodes = nodes
	f, err := setUp(w, 1, t.TempDir())
	if err != nil {
		t.Fatalf("%s set-up: %v", name, err)
	}
	defer f.close()
	tr := newTracer()
	var p passResult
	for i := 0; i < passes; i++ {
		var hooks phaseHooks
		if i == passes-1 {
			hooks = tr.hooks(&profile{path: t.TempDir() + "/cpu.pprof"})
		}
		if p, err = f.pass(w, int64(i), hooks); err != nil {
			t.Fatalf("%s pass %d: %v", name, i, err)
		}
		if p.attempted != nodes || p.completed+p.failed != nodes || len(p.latencies) != p.completed {
			t.Fatalf("%s pass %d: attempted %d, completed %d, failed %d, %d latencies; want %d nodes",
				name, i, p.attempted, p.completed, p.failed, len(p.latencies), nodes)
		}
		for _, pr := range p.problems {
			if known == "" || !strings.Contains(pr, known) {
				t.Errorf("%s pass %d: check failed: %s", name, i, pr)
			}
		}
	}
	hs, dials := tr.take()
	var spans []span
	layers := layerMetrics(w, p, hs, dials, 0, &spans)
	if len(spans) == 0 {
		t.Fatalf("%s: traced pass recorded no spans", name)
	}
	for _, k := range []string{"lifecycle.ring_evictions", "lifecycle.subscriber_drops"} {
		if layers[k] != 0 {
			t.Errorf("%s: %s = %v, want 0", name, k, layers[k])
		}
	}
	var shares float64
	for k, v := range layers {
		if strings.HasSuffix(k, "_share") {
			shares += v
		}
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("%s: phase shares sum to %v, want 1", name, shares)
	}
	if layers["http.kickstart.per_node"] != 1 {
		t.Errorf("%s: http.kickstart.per_node = %v, want 1", name, layers["http.kickstart.per_node"])
	}
	return p, layers
}

// A reinstall frontend serves every pass of a run, so the smoke test runs
// two on one set-up.
func TestSmokeReinstall(t *testing.T) {
	_, layers := smokePass(t, "reinstall", 10, 2, "")
	if layers["http.package.frontend.per_node"] == 0 || layers["installer.packages_ms"] == 0 {
		t.Errorf("no package traffic traced: %v", layers)
	}
	if layers["facts.reports_per_node"] != 1 {
		t.Errorf("facts.reports_per_node = %v, want 1", layers["facts.reports_per_node"])
	}
}

// An integrate frontend serves one pass: its nodes are blank only once.
// Each node's lease splits into the discovery phases, and every node is
// bound once.
func TestSmokeIntegrate(t *testing.T) {
	p, layers := smokePass(t, "integrate", 10, 1, "")
	if layers["insertethers.bind_ms"] == 0 || layers["installer.packages_ms"] == 0 || layers["installer.lease_ms"] != 0 {
		t.Errorf("integration phases not measured: %v", layers)
	}
	if layers["clusterdb.wal_records_per_node"] == 0 || layers["reports.writes_per_node"] == 0 {
		t.Errorf("no database writes measured: %v", layers)
	}
	if p.failed != 0 {
		t.Errorf("%d of %d nodes failed", p.failed, p.attempted)
	}
}

// A coalesced report regeneration can drop a binding insert-ethers has
// just added, so a REQUEST after its OFFER goes unanswered (about once per
// 4000 discoveries). Such a node fails, as its install would; no other
// check may.
func TestSmokeDiscover(t *testing.T) {
	_, layers := smokePass(t, "discover", 50, 1, errNoAck)
	if layers["dhcp.discovers_per_node"] < 1 || layers["insertethers.bind_ms"] == 0 {
		t.Errorf("discovery phases not measured: %v", layers)
	}
	if layers["http.package.frontend.per_node"] != 0 {
		t.Errorf("discover fetched packages: %v", layers["http.package.frontend.per_node"])
	}
}

// The relay registry hands installers peers of any architecture, so on the
// heterogeneous fleet a peer 404s a package it never installed and is
// demoted; the demoting node fails its zero-demotion check. Until that is
// fixed, no other check may fail.
func TestSmokeReinstallRelay(t *testing.T) {
	p, layers := smokePass(t, "reinstall-relay", 10, 1, string(lifecycle.EventRelayDemoted))
	if layers["dist.relay_byte_frac"] <= 0 {
		t.Errorf("dist.relay_byte_frac = %v, want > 0", layers["dist.relay_byte_frac"])
	}
	t.Logf("%d of %d nodes failed (known arch-blind peer selection)", p.failed, p.attempted)
}

// TestLossyStreamCounted shows the subscription check failing: with a
// one-event buffer and its reader held, nearly every event is lost, and
// close must count each.
func TestLossyStreamCounted(t *testing.T) {
	bus := lifecycle.NewBus(0)
	l := subscribe(bus, 1)
	l.mu.Lock()
	for i := 0; i < 10; i++ {
		bus.Publish(lifecycle.Event{MAC: "02:00:00:00:00:01", Type: lifecycle.EventLease})
	}
	l.mu.Unlock()
	events, lost := l.close()
	if lost+len(events) != 10 || lost < 8 {
		t.Fatalf("received %d events and counted %d lost; want 10 in all, at least 8 lost", len(events), lost)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range b.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	e2e := endToEnd([]passSummary{{Setups: []float64{1}, Wall: 1, Attempted: 1, Completed: 1}}).Metrics
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the run reports %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): run reports %+v", m.Name, m.Unit, got)
		}
	}
	want := layerUnits()
	if len(b.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the run reports %d", len(b.PerLayer), len(want))
	}
	for i, m := range b.PerLayer {
		if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, run %+v", i, m, w)
		}
	}
}
