package core

import (
	"net/http"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/lifecycle"
)

// TestDurableClusterRestart boots a frontend on a durable database
// directory, integrates compute nodes, shuts down cleanly, and boots a
// second frontend on the same directory: the node rows survive, the new
// frontend announces the recovery on the lifecycle bus, and
// /v1/dbstats exposes the WAL counters and recovery summary.
func TestDurableClusterRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Name: "Meteor", DHCPRetry: 2 * time.Millisecond, DBDir: dir}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Recovery() != nil {
		t.Errorf("fresh directory reported a recovery: %+v", c.Recovery())
	}
	addComputes(t, c, 3)
	want := c.DB.Dump()
	c.Close()

	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart on %s: %v", dir, err)
	}
	defer c2.Close()

	ri := c2.Recovery()
	if ri == nil || ri.Fresh {
		t.Fatalf("restart did not recover: %+v", ri)
	}
	if got := c2.DB.Dump(); got != want {
		t.Errorf("recovered database differs from pre-shutdown dump:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	rows, err := clusterdb.Nodes(c2.DB, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // frontend + 3 computes
		t.Errorf("recovered %d node rows, want 4", len(rows))
	}

	// The restart announces itself: a db-recovered event on the bus.
	evs := c2.Events().Recent(lifecycle.Filter{Type: lifecycle.EventDBRecovered})
	if len(evs) != 1 {
		t.Fatalf("want one db-recovered event, got %d", len(evs))
	}
	if evs[0].Source != "clusterdb" || evs[0].Detail == "" {
		t.Errorf("db-recovered event = %+v", evs[0])
	}

	// /v1/dbstats carries the WAL counters and the recovery summary.
	code, body, _ := v1Call(t, c2, http.MethodGet, "/v1/dbstats", nil)
	if code != 200 {
		t.Fatalf("dbstats: %d %q", code, body)
	}
	var stats struct {
		DB struct {
			WAL *clusterdb.WALStats `json:"wal"`
		} `json:"db"`
		Recovery *clusterdb.RecoveryInfo `json:"recovery"`
	}
	dataOf(t, body, &stats)
	if stats.DB.WAL == nil {
		t.Fatal("dbstats missing wal counters on a durable database")
	}
	if stats.DB.WAL.Replays != 1 {
		t.Errorf("replays = %d, want 1", stats.DB.WAL.Replays)
	}
	if stats.Recovery == nil {
		t.Error("dbstats missing recovery summary after restart")
	}

	// A machine integrated after recovery must be a new node, not a
	// silent adoption of a recovered identity: the restarted MAC
	// allocator reserves every recovered MAC.
	addComputes(t, c2, 1)
	rows, err = clusterdb.Nodes(c2.DB, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("post-recovery integrate: %d node rows, want 5 (new machine adopted a recovered MAC?)", len(rows))
	}
	want2 := c2.DB.Dump()

	// A clean shutdown snapshots, so a third boot replays nothing.
	c2.Close()
	c3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if ri := c3.Recovery(); ri == nil || ri.Replayed != 0 {
		t.Errorf("third boot after clean shutdown: %+v", ri)
	}
	if got := c3.DB.Dump(); got != want2 {
		t.Error("third boot diverged from pre-shutdown dump")
	}
}
