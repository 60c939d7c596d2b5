package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/lifecycle"
	"rocks/internal/monitor"
	"rocks/internal/node"
)

// The supervisor closes the remediation loop the paper leaves open. §4's
// monitor ends at a human — it tells the administrator "which outlets to
// cycle" — and §6.3's installer waits for a user to type "retry". The
// large-cluster experience reports (CERN, Brookhaven; PAPERS.md) are
// unanimous that at thousand-node scale transient install failures are
// constant and the human in that loop is the bottleneck. The supervisor
// consumes the monitor's up/dark transitions from the lifecycle bus plus
// each node's state machine and applies the paper's own remedies
// mechanically: a hard power cycle for dark nodes (which forces
// reinstallation, §4), a re-shoot for crashed installs, capped exponential
// backoff with jitter between attempts, and — when a node exhausts its
// retry budget — quarantine: the node is marked offline in PBS and the
// reports, so the cluster keeps scheduling at reduced capacity instead of
// wedging on one bad machine. Every action is published to the cluster's
// lifecycle bus (the bounded ring that /v1/events serves), which chaos
// tests reconcile against the fault injector's ledger.

// SupervisorConfig tunes the remediation loop.
type SupervisorConfig struct {
	// Patience is how long a node may be dark (off, stuck booting) before
	// remediation starts; it is also the monitor's patience. Crashed nodes
	// skip the wait — their state is definitive. Default 5s.
	Patience time.Duration
	// Interval is the supervision tick. Default 500ms.
	Interval time.Duration
	// MaxRetries is the remediation budget per failure episode; a node
	// still failing after that many power cycles is quarantined. A
	// recovery (node reaches Up) refunds the budget. Default 3.
	MaxRetries int
	// BaseBackoff is the wait after the first remediation attempt; it
	// doubles per attempt up to MaxBackoff, plus up to 50% seeded jitter
	// so a rack of simultaneous casualties does not thundering-herd the
	// install server. Defaults 1s and 30s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed drives the jitter PRNG; fixed seeds give reproducible runs.
	Seed int64
}

func (cfg SupervisorConfig) withDefaults() SupervisorConfig {
	if cfg.Patience <= 0 {
		cfg.Patience = 5 * time.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	return cfg
}

// EventType classifies a supervisor action. It is the lifecycle bus's event
// vocabulary; the aliases below preserve the supervisor's original names.
type EventType = lifecycle.EventType

// The supervisor's vocabulary of actions.
const (
	// EventPowerCycle: a hard cycle was issued and the PDU obeyed; the
	// node is reinstalling itself.
	EventPowerCycle = lifecycle.EventPowerCycle
	// EventPowerCycleFailed: the cycle command failed (PDU fault, unwired
	// outlet); the attempt still burned budget and backoff applies.
	EventPowerCycleFailed = lifecycle.EventPowerCycleFailed
	// EventQuarantine: retry budget exhausted; node marked offline.
	EventQuarantine = lifecycle.EventQuarantine
	// EventRecovered: a previously failing node reached Up; budget
	// refunded.
	EventRecovered = lifecycle.EventRecovered
	// EventDriftReinstall: an Up node's reported facts show actionable
	// drift; a cycle-to-reinstall was ordered to chase it.
	EventDriftReinstall = lifecycle.EventDriftReinstall
)

// supervisorStats counts remediation actions by type. It lives on the
// Cluster rather than the Supervisor so the counters stay monotonic
// across supervisor restarts.
type supervisorStats struct {
	powerCycles     atomic.Uint64
	powerCycleFails atomic.Uint64
	quarantines     atomic.Uint64
	unquarantines   atomic.Uint64
	recoveries      atomic.Uint64
	driftReinstalls atomic.Uint64
}

func (st *supervisorStats) count(t EventType) {
	switch t {
	case EventPowerCycle:
		st.powerCycles.Add(1)
	case EventPowerCycleFailed:
		st.powerCycleFails.Add(1)
	case EventQuarantine:
		st.quarantines.Add(1)
	case lifecycle.EventUnquarantine:
		st.unquarantines.Add(1)
	case EventRecovered:
		st.recoveries.Add(1)
	case EventDriftReinstall:
		st.driftReinstalls.Add(1)
	}
}

// SupervisorEvent is one structured log entry, reconstructed from the
// supervisor's events on the lifecycle bus.
type SupervisorEvent struct {
	Seq     int       `json:"seq"`
	Time    time.Time `json:"time"`
	Host    string    `json:"host"`
	MAC     string    `json:"mac"`
	Type    EventType `json:"type"`
	Attempt int       `json:"attempt,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// String renders the event for logs.
func (e SupervisorEvent) String() string {
	s := fmt.Sprintf("#%d %s %s", e.Seq, e.Host, e.Type)
	if e.Attempt > 0 {
		s += fmt.Sprintf(" (attempt %d)", e.Attempt)
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// remedRecord is the supervisor's per-node bookkeeping, keyed by MAC (the
// only identity a node is guaranteed to have).
type remedRecord struct {
	watchedAs   string // identity registered with the monitor
	attempts    int
	next        time.Time // backoff gate for the next attempt
	failing     bool
	quarantined bool
}

// Supervisor is the closed-loop remediation daemon.
type Supervisor struct {
	c   *Cluster
	cfg SupervisorConfig
	mon *monitor.Monitor

	mu      sync.Mutex
	rng     *rand.Rand
	recs    map[string]*remedRecord
	health  map[string]monitor.Health // last health class per watched identity, from bus events
	stopped bool

	sub    <-chan lifecycle.Event
	unsub  func()
	cancel context.CancelFunc
	done   chan struct{}
}

// StartSupervisor launches the remediation loop over the cluster's nodes.
// Its monitor probes in the background and publishes up/dark transitions to
// the lifecycle bus; the supervisor consumes them from a subscription. Both
// loops run under the cluster's root context, so Close reaps them; the
// caller may also Stop explicitly.
func (c *Cluster) StartSupervisor(cfg SupervisorConfig) *Supervisor {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(c.ctx)
	mon := monitor.New(monitor.PingerFunc(c.Ping), cfg.Patience, 0)
	mon.PublishTo(c.events)
	s := &Supervisor{
		c:      c,
		cfg:    cfg,
		mon:    mon,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		recs:   make(map[string]*remedRecord),
		health: make(map[string]monitor.Health),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	s.sub, s.unsub = c.events.Subscribe(lifecycle.DefaultRingSize)
	c.mu.Lock()
	c.supervisor = s
	c.mu.Unlock()
	mon.StartCtx(ctx, cfg.Interval)
	go s.run(ctx)
	return s
}

// Supervisor returns the running supervisor, if any.
func (c *Cluster) Supervisor() *Supervisor {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.supervisor
}

// run consumes bus events between ticks; each tick drains the backlog and
// applies the remediation policy with a current health picture.
func (s *Supervisor) run(ctx context.Context) {
	defer close(s.done)
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case e := <-s.sub:
			s.observe(e)
		case <-t.C:
			s.drain()
			s.tick()
		}
	}
}

// observe folds one bus event into the supervisor's health picture. Only
// the monitor's transitions matter here; the supervisor's own events and
// the installer's phase events would be echoes.
func (s *Supervisor) observe(e lifecycle.Event) {
	if e.Source != "monitor" {
		return
	}
	s.mu.Lock()
	switch e.Type {
	case lifecycle.EventDark:
		s.health[e.Node] = monitor.HealthDark
	case lifecycle.EventUp:
		s.health[e.Node] = monitor.HealthUp
	}
	s.mu.Unlock()
}

// drain consumes every queued bus event without blocking.
func (s *Supervisor) drain() {
	for {
		select {
		case e := <-s.sub:
			s.observe(e)
		default:
			return
		}
	}
}

// Stop halts the loop and the embedded monitor; idempotent. The cluster's
// root context cancels the same way, so Close needs no special case.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	s.cancel()
	<-s.done
	s.unsub()
	s.mon.Stop()
}

// Monitor exposes the supervisor's embedded health monitor.
func (s *Supervisor) Monitor() *monitor.Monitor { return s.mon }

// tick is one pass: refresh the watch set, then remediate against the
// health picture accumulated from the monitor's bus events.
func (s *Supervisor) tick() {
	nodes := s.c.Nodes()
	frontendMAC := s.c.Frontend.MAC()

	// Keep the monitor watching every node under its best-known identity.
	// A node's name arrives mid-install, so identities are late-bound.
	s.mu.Lock()
	for mac, n := range nodes {
		if mac == frontendMAC {
			continue
		}
		identity := n.Name()
		if identity == "" {
			identity = mac
		}
		rec := s.recs[mac]
		if rec == nil {
			rec = &remedRecord{}
			s.recs[mac] = rec
		}
		if rec.watchedAs != identity {
			if rec.watchedAs != "" {
				s.mon.Unwatch(rec.watchedAs)
				delete(s.health, rec.watchedAs)
			}
			s.mon.Watch(identity)
			rec.watchedAs = identity
		}
	}
	s.mu.Unlock()

	now := time.Now()
	for mac, n := range nodes {
		if mac == frontendMAC {
			continue
		}
		s.superviseNode(now, mac, n)
	}
}

// superviseNode applies the remediation policy to one node.
func (s *Supervisor) superviseNode(now time.Time, mac string, n *node.Node) {
	s.mu.Lock()
	rec := s.recs[mac]
	if rec == nil || rec.quarantined {
		s.mu.Unlock()
		return
	}
	st := n.State()
	switch st {
	case node.StateUp:
		// Drift remediation: an Up node whose latest facts report shows
		// actionable drift (wrong arch, disk, NIC set) is cycled so its
		// reinstall re-probes the hardware. The episode shares the dark-node
		// budget — same backoff, same quarantine when it exhausts — and the
		// check runs before the recovery refund, so drift that persists
		// across reinstalls burns down the budget instead of resetting it.
		// Benign drift (cpus, mem_mb) never reaches here: it is recorded in
		// the inventory and the timeline only.
		if fields := s.c.actionableDriftFields(mac); len(fields) > 0 {
			s.remediateDriftLocked(now, rec, mac, n, fields)
			return
		}
		if rec.failing {
			rec.failing = false
			rec.attempts = 0
			rec.next = time.Time{}
			s.recordLocked(rec.watchedAs, mac, EventRecovered, 0, "node reached up; retry budget refunded")
		}
		s.mu.Unlock()
		return
	case node.StateInstalling:
		// Alive: the install is visible on eKV. Progress stalls surface as
		// a crash (wedge) or as darkness after the install dies.
		s.mu.Unlock()
		return
	case node.StateCrashed:
		// Definitive: no patience needed.
	default: // off, booting
		if s.health[rec.watchedAs] != monitor.HealthDark {
			s.mu.Unlock()
			return
		}
	}
	rec.failing = true
	if now.Before(rec.next) {
		s.mu.Unlock()
		return
	}
	if rec.attempts >= s.cfg.MaxRetries {
		rec.quarantined = true
		attempts := rec.attempts
		host := s.displayName(mac, n)
		s.mu.Unlock()
		if err := s.c.Quarantine(host); err != nil {
			s.c.Syslog.Log("frontend-0", "supervisor", "quarantining %s: %v", host, err)
		}
		// Published after Quarantine took effect, so a bus waiter that
		// wakes on this event observes the node already offline.
		s.record(host, mac, EventQuarantine, attempts,
			fmt.Sprintf("retry budget (%d) exhausted in state %s; marking offline", s.cfg.MaxRetries, st))
		return
	}
	rec.attempts++
	attempt := rec.attempts
	rec.next = now.Add(s.backoffLocked(attempt))
	host := s.displayName(mac, n)
	s.mu.Unlock()

	// The paper's remedy, issued mechanically: a hard power cycle forces
	// the node to reinstall itself (§4).
	outlet, wired := s.c.PDU.OutletFor(mac)
	if !wired {
		s.record(host, mac, EventPowerCycleFailed, attempt, "no PDU outlet wired")
		return
	}
	if err := s.c.PDU.HardCycle(outlet); err != nil {
		s.record(host, mac, EventPowerCycleFailed, attempt, err.Error())
		return
	}
	s.record(host, mac, EventPowerCycle, attempt,
		fmt.Sprintf("outlet %d cycled; node reinstalling (was %s)", outlet, st))
}

// remediateDriftLocked orders a bounded cycle-to-reinstall for an Up node
// with actionable facts drift. Called with s.mu held; releases it.
func (s *Supervisor) remediateDriftLocked(now time.Time, rec *remedRecord, mac string, n *node.Node, fields []string) {
	rec.failing = true
	if now.Before(rec.next) {
		s.mu.Unlock()
		return
	}
	if rec.attempts >= s.cfg.MaxRetries {
		rec.quarantined = true
		attempts := rec.attempts
		host := s.displayName(mac, n)
		s.mu.Unlock()
		if err := s.c.Quarantine(host); err != nil {
			s.c.Syslog.Log("frontend-0", "supervisor", "quarantining %s: %v", host, err)
		}
		s.record(host, mac, EventQuarantine, attempts,
			fmt.Sprintf("retry budget (%d) exhausted chasing drift in %s; marking offline",
				s.cfg.MaxRetries, strings.Join(fields, ",")))
		return
	}
	rec.attempts++
	attempt := rec.attempts
	rec.next = now.Add(s.backoffLocked(attempt))
	host := s.displayName(mac, n)
	s.mu.Unlock()

	outlet, wired := s.c.PDU.OutletFor(mac)
	if !wired {
		s.record(host, mac, EventPowerCycleFailed, attempt, "no PDU outlet wired")
		return
	}
	if err := s.c.PDU.HardCycle(outlet); err != nil {
		s.record(host, mac, EventPowerCycleFailed, attempt, err.Error())
		return
	}
	s.record(host, mac, EventDriftReinstall, attempt,
		fmt.Sprintf("outlet %d cycled; reinstalling to chase drift in %s", outlet, strings.Join(fields, ",")))
}

// backoffLocked computes the capped exponential backoff plus jitter for the
// given attempt number. Caller holds s.mu (the PRNG is not goroutine-safe).
func (s *Supervisor) backoffLocked(attempt int) time.Duration {
	d := s.cfg.BaseBackoff << uint(attempt-1)
	if d > s.cfg.MaxBackoff || d <= 0 {
		d = s.cfg.MaxBackoff
	}
	return d + time.Duration(s.rng.Float64()*float64(d)/2)
}

// displayName resolves the best human name for a node: its hostname, the
// database row bound to its MAC (insert-ethers names nodes before their
// first successful boot), or the MAC itself. Caller may hold s.mu; only
// cluster-level lookups happen here.
func (s *Supervisor) displayName(mac string, n *node.Node) string {
	if name := n.Name(); name != "" {
		return name
	}
	if row, ok, err := clusterdb.NodeByMAC(s.c.DB, mac); err == nil && ok && row.Name != "" {
		return row.Name
	}
	return mac
}

func (s *Supervisor) record(host, mac string, t EventType, attempt int, detail string) {
	s.recordLocked(host, mac, t, attempt, detail)
}

// recordLocked publishes one supervisor action to the lifecycle bus — the
// bounded ring is the event log now; there is no private slice to grow
// without limit. Safe with or without s.mu held (the bus has its own lock
// and never calls back).
func (s *Supervisor) recordLocked(host, mac string, t EventType, attempt int, detail string) {
	s.c.supStats.count(t)
	e := s.c.events.Publish(lifecycle.Event{
		Node:    host,
		MAC:     mac,
		Phase:   lifecycle.PhaseRemediate,
		Type:    t,
		Source:  "supervisor",
		Attempt: attempt,
		Detail:  detail,
	})
	s.c.Syslog.Log("frontend-0", "supervisor", "%s", e.String())
}

// Events returns the supervisor's action log in order, reconstructed from
// the lifecycle ring (bounded: entries evicted from the ring are gone; the
// drop count is on /v1/supervisor).
func (s *Supervisor) Events() []SupervisorEvent {
	events := s.c.events.Recent(lifecycle.Filter{Source: "supervisor"})
	out := make([]SupervisorEvent, len(events))
	for i, e := range events {
		out[i] = SupervisorEvent{
			Seq: i + 1, Time: e.Time,
			Host: e.Node, MAC: e.MAC, Type: e.Type, Attempt: e.Attempt, Detail: e.Detail,
		}
	}
	return out
}

// EventsFor filters the log by host or MAC.
func (s *Supervisor) EventsFor(hostOrMAC string) []SupervisorEvent {
	var out []SupervisorEvent
	for _, e := range s.Events() {
		if e.Host == hostOrMAC || e.MAC == hostOrMAC {
			out = append(out, e)
		}
	}
	return out
}

// EventLog renders the action log as text, one event per line.
func (s *Supervisor) EventLog() string {
	var b strings.Builder
	for _, e := range s.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
