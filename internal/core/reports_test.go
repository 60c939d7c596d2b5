package core

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"rocks/internal/clusterdb"
)

// TestCoalescedDiscoveryBurst drives a burst of discoveries through
// insert-ethers and checks the fast-path contract: every node still lands
// in /etc/hosts and gets its DHCP binding, but the full dbreport pass runs
// far fewer times than once per discovery.
func TestCoalescedDiscoveryBurst(t *testing.T) {
	c := newCluster(t)
	const burst = 24

	w0 := c.ReportStats().Writes
	ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if err := ie.Discover(fmt.Sprintf("02:ee:00:00:00:%02x", i)); err != nil {
			t.Fatalf("discover %d: %v", i, err)
		}
	}
	ie.Stop()
	if err := c.FlushReports(); err != nil {
		t.Fatal(err)
	}

	hosts, err := c.Frontend.Disk().ReadFile("/etc/hosts")
	if err != nil {
		t.Fatal(err)
	}
	bindings := c.DHCPd.Bindings()
	for i := 0; i < burst; i++ {
		name := fmt.Sprintf("compute-0-%d", i)
		if !strings.Contains(string(hosts), name) {
			t.Errorf("/etc/hosts missing %s after flush", name)
		}
		if _, ok := bindings[fmt.Sprintf("02:ee:00:00:00:%02x", i)]; !ok {
			t.Errorf("DHCP binding for node %d missing (delta sync failed)", i)
		}
	}
	writes := c.ReportStats().Writes - w0
	if writes == 0 {
		t.Fatal("burst never regenerated reports")
	}
	if writes >= burst {
		t.Errorf("burst of %d discoveries caused %d full regenerations; want coalescing", burst, writes)
	}
}

// TestWriteReportsChangeSeqGuard checks that a WriteReports call with no
// intervening mutation is answered by the guard instead of regenerating.
func TestWriteReportsChangeSeqGuard(t *testing.T) {
	c := newCluster(t)
	if err := c.WriteReports(); err != nil {
		t.Fatal(err)
	}
	s0 := c.ReportStats()
	if err := c.WriteReports(); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteReports(); err != nil {
		t.Fatal(err)
	}
	s1 := c.ReportStats()
	if s1.Writes != s0.Writes {
		t.Errorf("no-op WriteReports regenerated: writes %d -> %d", s0.Writes, s1.Writes)
	}
	if s1.Skips < s0.Skips+2 {
		t.Errorf("guard skips %d -> %d, want +2", s0.Skips, s1.Skips)
	}
	// A mutation re-arms the guard.
	if _, err := c.DB.Exec(`UPDATE site SET value = 'Guarded' WHERE name = 'ClusterName'`); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteReports(); err != nil {
		t.Fatal(err)
	}
	if got := c.ReportStats().Writes; got != s1.Writes+1 {
		t.Errorf("post-mutation writes = %d, want %d", got, s1.Writes+1)
	}
	// Quarantining (no DB mutation) also re-arms it: the PBS report
	// annotates offline hosts, so the files must regenerate.
	addComputes(t, c, 1)
	if err := c.WriteReports(); err != nil {
		t.Fatal(err)
	}
	w := c.ReportStats().Writes
	if err := c.Quarantine("compute-0-0"); err != nil {
		t.Fatal(err)
	}
	if c.ReportStats().Writes <= w {
		t.Error("quarantine did not regenerate reports")
	}
}

// TestAdminDBStats exercises the observability endpoint end to end: the
// counters it reports must be live (an indexed lookup moves index_selects).
func TestAdminDBStats(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 1)

	var stats struct {
		DB struct {
			PlanCacheHits   uint64                `json:"plan_cache_hits"`
			PlanCacheMisses uint64                `json:"plan_cache_misses"`
			IndexSelects    uint64                `json:"index_selects"`
			ScanSelects     uint64                `json:"scan_selects"`
			Indexes         []clusterdb.IndexInfo `json:"indexes"`
		} `json:"db"`
		Reports   ReportStats `json:"reports"`
		Kickstart struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"kickstart_cache"`
	}
	fetch := func() {
		t.Helper()
		code, body, _ := v1Call(t, c, http.MethodGet, "/v1/dbstats", nil)
		if code != 200 {
			t.Fatalf("GET /v1/dbstats = %d: %s", code, body)
		}
		dataOf(t, body, &stats)
	}
	fetch()
	if len(stats.DB.Indexes) == 0 {
		t.Fatal("no indexes reported")
	}
	var nodesMAC bool
	for _, ix := range stats.DB.Indexes {
		if ix.Table == "nodes" && ix.Name == "nodes_mac" && ix.Unique {
			nodesMAC = true
		}
	}
	if !nodesMAC {
		t.Errorf("nodes_mac index missing from %+v", stats.DB.Indexes)
	}
	if stats.Reports.Writes == 0 {
		t.Error("report writes counter never moved")
	}

	// Point an indexed query through /v1/sql and watch the counter move.
	before := stats.DB.IndexSelects
	code, _, _ := v1Call(t, c, http.MethodGet, "/v1/sql", url.Values{
		"q": {`SELECT name FROM nodes WHERE name = 'compute-0-0'`}})
	if code != 200 {
		t.Fatalf("/v1/sql = %d", code)
	}
	fetch()
	if stats.DB.IndexSelects <= before {
		t.Errorf("index_selects static at %d after indexed query", before)
	}
	if stats.DB.PlanCacheMisses == 0 {
		t.Error("plan cache miss counter never moved")
	}
}
