package clusterdb

import (
	"rocks/internal/metrics"
)

// RegisterMetrics exposes the database's fast-path and durability counters
// on the cluster's metrics registry — the same figures /v1/dbstats
// serves as JSON, re-homed onto the one scrapeable surface. Collector
// funcs sample the live atomics at scrape time, so registration costs the
// hot paths nothing.
//
// The WAL families are registered unconditionally and read zero for an
// in-memory database: a scrape-side assertion ("is this counter present?")
// must not depend on how the cluster was configured.
func (d *Database) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("rocks_db_plan_cache_hits_total",
		"SELECT/EXEC statements answered from the parsed-plan cache.",
		func() float64 { h, _, _ := d.plans.stats(); return float64(h) })
	r.CounterFunc("rocks_db_plan_cache_misses_total",
		"Statements that paid a fresh parse before caching.",
		func() float64 { _, m, _ := d.plans.stats(); return float64(m) })
	r.GaugeFunc("rocks_db_plan_cache_entries",
		"Parsed plans currently cached across both generations.",
		func() float64 { _, _, e := d.plans.stats(); return float64(e) })
	r.CounterFunc("rocks_db_index_selects_total",
		"SELECTs routed through an automatic hash index.",
		func() float64 { return float64(d.indexSelects.Load()) })
	r.CounterFunc("rocks_db_scan_selects_total",
		"SELECTs answered by a full table scan.",
		func() float64 { return float64(d.scanSelects.Load()) })
	r.GaugeVecFunc("rocks_db_index_keys",
		"Distinct keys held per automatic index.",
		[]string{"table", "index"}, func() []metrics.Sample {
			var out []metrics.Sample
			d.mu.RLock()
			for _, name := range d.tableNamesLocked() {
				for _, ix := range d.tables[name].indexes {
					out = append(out, metrics.Sample{
						Labels: []string{name, ix.spec.name},
						Value:  float64(len(ix.buckets)),
					})
				}
			}
			d.mu.RUnlock()
			return out
		})

	wal := func(get func(*WALStats) float64) func() float64 {
		return func() float64 {
			if d.dur == nil {
				return 0
			}
			return get(d.dur.stats())
		}
	}
	r.GaugeFunc("rocks_db_wal_enabled",
		"1 when the database is durable (WAL + snapshots), 0 for in-memory.",
		func() float64 {
			if d.dur != nil {
				return 1
			}
			return 0
		})
	r.CounterFunc("rocks_db_wal_records_appended_total",
		"Mutation records appended to the write-ahead log.",
		wal(func(s *WALStats) float64 { return float64(s.RecordsAppended) }))
	r.CounterFunc("rocks_db_wal_bytes_appended_total",
		"Bytes appended to the write-ahead log.",
		wal(func(s *WALStats) float64 { return float64(s.BytesAppended) }))
	r.CounterFunc("rocks_db_wal_fsyncs_total",
		"WAL records forced to stable storage before applying.",
		wal(func(s *WALStats) float64 { return float64(s.Fsyncs) }))
	r.CounterFunc("rocks_db_wal_snapshots_total",
		"Snapshot rotations taken.",
		wal(func(s *WALStats) float64 { return float64(s.Snapshots) }))
	r.GaugeFunc("rocks_db_wal_last_snapshot_seq",
		"Change sequence contained in the most recent snapshot.",
		wal(func(s *WALStats) float64 { return float64(s.LastSnapshotSeq) }))
	r.CounterFunc("rocks_db_wal_replays_total",
		"Recovery passes that replayed the log.",
		wal(func(s *WALStats) float64 { return float64(s.Replays) }))
	r.CounterFunc("rocks_db_wal_records_replayed_total",
		"Log records applied during recovery.",
		wal(func(s *WALStats) float64 { return float64(s.RecordsReplayed) }))
	r.CounterFunc("rocks_db_wal_replay_errors_total",
		"Replayed records that failed (deterministically, as first logged).",
		wal(func(s *WALStats) float64 { return float64(s.ReplayErrors) }))
	r.CounterFunc("rocks_db_wal_stale_skipped_total",
		"Log records skipped because the snapshot already contained them.",
		wal(func(s *WALStats) float64 { return float64(s.StaleSkipped) }))
	r.CounterFunc("rocks_db_wal_torn_tails_dropped_total",
		"Torn final records dropped from the log tail during recovery.",
		wal(func(s *WALStats) float64 { return float64(s.TornTailsDropped) }))
}
