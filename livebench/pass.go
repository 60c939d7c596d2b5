package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/core"
	"rocks/internal/dhcp"
	"rocks/internal/hardware"
	"rocks/internal/insertethers"
	"rocks/internal/installer"
	"rocks/internal/kickstart"
	"rocks/internal/lifecycle"
	"rocks/internal/metrics"
	"rocks/internal/node"
)

// nodeDeadline bounds one node's command-to-completion time; a node that
// misses it counts as failed.
const nodeDeadline = 30 * time.Second

// errNoAck is a discovery whose REQUEST went unanswered after an OFFER;
// the installer fails the install in that case, so the benchmark fails the
// node.
const errNoAck = "OFFER but no ACK"

// passResult is what one timed pass measured.
type passResult struct {
	wall      time.Duration // first command to last completion
	cpu       time.Duration // process user+sys over the timed phase
	latencies []float64     // per completed node, ms
	attempted int
	completed int
	failed    int
	problems  []string // failed output checks
	noAcks    int      // discover: OFFERs whose REQUEST got no ACK

	// Inputs to the per-layer metrics (filled on every pass, used by the
	// traced run): the timed phase's events, node windows, and the
	// counter and runtime deltas around it.
	start, end time.Time
	events     []event
	lost       int                   // events the pass's subscription missed
	windows    map[string]nodeWindow // by MAC
	before     metrics.Scrape
	after      metrics.Scrape
	memBefore  runtime.MemStats
	memAfter   runtime.MemStats
	discovers  int // DHCPDISCOVER broadcasts in the timed phase
}

// phaseHooks let the traced run act at the timed phase's edges.
type phaseHooks struct {
	begin func(*core.Cluster) // just before the timed phase
	end   func()              // as soon as the last node completes
}

func (h phaseHooks) atBegin(c *core.Cluster) {
	if h.begin != nil {
		h.begin(c)
	}
}

func (h phaseHooks) atEnd() {
	if h.end != nil {
		h.end()
	}
}

// nodeWindow is one node's command-to-completion interval in the timed
// phase, plus the benchmark-side timestamps of the discover workload.
type nodeWindow struct {
	mac, name  string
	ip         string
	start, end time.Time
	offer      time.Time // discover: OFFER received
	ok         bool
}

// event is what a pass keeps of a lifecycle event: only the fields its
// checks and phases read, so the harness adds little to the heap reading.
type event struct {
	seq    uint64
	mac    string
	typ    lifecycle.EventType
	time   time.Time
	detail string
}

// eventLog is the timed phase's single lifecycle subscription. Its buffer
// holds every event the pass can publish, so completion detection never
// scans the bus ring; close counts the events it missed by their sequence
// numbers, so a lossy stream cannot go unnoticed.
type eventLog struct {
	bus    *lifecycle.Bus
	ch     <-chan lifecycle.Event
	cancel func()
	first  uint64 // bus sequence number when the subscription opened
	stop   chan struct{}
	done   chan struct{}

	mu      sync.Mutex
	events  []event
	waiters map[string]chan event // by MAC: first terminal event
}

// subscribe opens the timed phase's subscription, buffered for
// `capacity` events: sized to the pass, not to its consumer's speed.
func subscribe(bus *lifecycle.Bus, capacity int) *eventLog {
	ch, cancel := bus.Subscribe(capacity)
	l := &eventLog{bus: bus, ch: ch, cancel: cancel, first: bus.Seq(),
		stop: make(chan struct{}), done: make(chan struct{}), waiters: make(map[string]chan event)}
	go l.loop()
	return l
}

func (l *eventLog) loop() {
	defer close(l.done)
	for {
		select {
		case e := <-l.ch:
			l.record(e)
		case <-l.stop:
			for {
				select {
				case e := <-l.ch:
					l.record(e)
				default:
					return
				}
			}
		}
	}
}

func (l *eventLog) record(e lifecycle.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := event{seq: e.Seq, mac: e.MAC, typ: e.Type, time: e.Time}
	switch e.Type {
	case lifecycle.EventUp, lifecycle.EventInstallFailed, lifecycle.EventInstallAborted:
		if w, ok := l.waiters[e.MAC]; ok {
			delete(l.waiters, e.MAC)
			w <- ev
		}
		ev.detail = e.Detail
	case lifecycle.EventPackageCorrupt, lifecycle.EventRelayDemoted:
		ev.detail = e.Detail
	}
	l.events = append(l.events, ev)
}

// await registers interest in a MAC's next terminal event (up, or a
// failed/aborted install); call it before commanding the node.
func (l *eventLog) await(mac string) <-chan event {
	w := make(chan event, 1)
	l.mu.Lock()
	l.waiters[mac] = w
	l.mu.Unlock()
	return w
}

// close ends the subscription and returns every event it received, and
// how many of the events published while it was open it missed.
func (l *eventLog) close() ([]event, int) {
	last := l.bus.Seq()
	l.cancel()
	close(l.stop)
	<-l.done
	lost := int(last - l.first)
	for _, e := range l.events {
		if e.seq > l.first && e.seq <= last {
			lost--
		}
	}
	return l.events, lost
}

// closedLoop runs fn for items 0..n-1 from `inflight` workers: each worker
// starts its next item only when its previous one has finished.
func closedLoop(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// frontend is one set-up: a fresh cluster and what the workload set up on
// it, the integrated fleet or a listening insert-ethers.
type frontend struct {
	c     *core.Cluster
	ie    *insertethers.InsertEthers
	nodes []*node.Node
	dbdir string
	setup time.Duration // core.New plus the workload's set-up
}

// setUp builds a fresh frontend with production defaults (eKV on, profile
// cache on, WAL on, fsync off) and sets the workload up on it: a reinstall
// workload integrates its seeded fleet, integrate and discover start
// insert-ethers.
func setUp(w workload, seed int64, tmp string) (*frontend, error) {
	dbdir, err := os.MkdirTemp(tmp, "clusterdb-")
	if err != nil {
		return nil, err
	}
	var hw []hardware.Profile
	if !w.freshPerPass() {
		hw = fleet(rand.New(rand.NewSource(seed)), w.nodes)
	}
	cfg := core.Config{Name: "livebench", DBDir: dbdir, EnableRelays: w.relays, EventRingSize: w.ringSize()}
	f := &frontend{dbdir: dbdir}
	t0 := time.Now()
	if f.c, err = core.New(cfg); err != nil {
		os.RemoveAll(dbdir)
		return nil, err
	}
	if w.freshPerPass() {
		f.ie, err = f.c.StartInsertEthers(clusterdb.MembershipCompute, 0)
	} else {
		f.nodes, err = f.c.IntegrateNodes(hw, clusterdb.MembershipCompute, 0, nodeDeadline)
	}
	f.setup = time.Since(t0)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("setting up: %w", err)
	}
	return f, nil
}

func (f *frontend) close() {
	if f.ie != nil {
		f.ie.Stop()
	}
	f.c.Close()
	os.RemoveAll(f.dbdir)
}

// pass times one pass of the workload on the frontend; seed picks the
// reinstall shoot order, the integrated fleet or the discover MACs.
func (f *frontend) pass(w workload, seed int64, hooks phaseHooks) (passResult, error) {
	rng := rand.New(rand.NewSource(seed))
	switch {
	case w.discover:
		return discoverPass(w, f, rng, hooks)
	case w.integrate:
		return integratePass(w, f, rng, hooks)
	}
	return reinstallPass(w, f, rng, hooks)
}

// timedPhase brackets a pass's timed work with counter scrapes, CPU and
// heap readings, and the lifecycle subscription.
type timedPhase struct {
	c       *core.Cluster
	log     *eventLog
	ru      syscall.Rusage
	syslogN int
	p       *passResult
}

func beginTimed(c *core.Cluster, capacity int, p *passResult, hooks phaseHooks) (*timedPhase, error) {
	t := &timedPhase{c: c, p: p}
	var err error
	if p.before, err = scrape(c); err != nil {
		return nil, err
	}
	t.syslogN = len(c.Syslog.Messages())
	// Set-up's garbage, and a closed earlier frontend's, is collected
	// here rather than inside the timed phase.
	runtime.GC()
	runtime.ReadMemStats(&p.memBefore)
	hooks.atBegin(c)
	t.log = subscribe(c.Events(), capacity)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &t.ru); err != nil {
		return nil, err
	}
	p.start = time.Now()
	return t, nil
}

func (t *timedPhase) finish() error {
	p := t.p
	p.end = time.Now()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	p.cpu = cpuTime(ru) - cpuTime(t.ru)
	p.wall = p.end.Sub(p.start)
	runtime.ReadMemStats(&p.memAfter)
	p.events, p.lost = t.log.close()
	t.log = nil
	// Regenerate any report a discovery left pending now, so the output
	// checks read reports that reflect the whole pass and no debounce
	// timer fires during the heap reading.
	if err := t.c.FlushReports(); err != nil {
		return fmt.Errorf("flushing reports: %w", err)
	}
	var err error
	if p.after, err = scrape(t.c); err != nil {
		return err
	}
	scrapeClient.CloseIdleConnections()
	if p.discovers == 0 {
		// The installer's own DISCOVERs: dhcpd logs an OFFER for a bound
		// MAC and a DISCOVER line for an unknown one.
		for _, m := range t.c.Syslog.Messages()[t.syslogN:] {
			if m.Tag == "dhcpd" && (strings.HasPrefix(m.Text, "DHCPOFFER") || strings.HasPrefix(m.Text, "DHCPDISCOVER")) {
				p.discovers++
			}
		}
	}
	// No phase may come from a lossy stream: the subscription must have
	// seen every event, and the ring must not have evicted any.
	if p.lost != 0 {
		p.problems = append(p.problems, fmt.Sprintf("the lifecycle subscription missed %d events", p.lost))
	}
	if ev := delta(p, "rocks_lifecycle_ring_evictions_total"); ev != 0 {
		p.problems = append(p.problems, fmt.Sprintf("the lifecycle ring evicted %.0f events", ev))
	}
	return nil
}

// liveHeapMB is the Go heap in use after a forced GC. A run reads it once
// a pass's checks and per-layer metrics are done and the pass's records
// are dropped, so it holds the program's heap and little of the harness's.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scrape reads the frontend's /metrics exposition over its own client, so
// the scrape never shows up in the traced transport's counts.
var scrapeClient = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}

func scrape(c *core.Cluster) (metrics.Scrape, error) {
	resp, err := scrapeClient.Get(c.BaseURL() + "/metrics")
	if err != nil {
		return metrics.Scrape{}, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return metrics.Scrape{}, fmt.Errorf("scraping /metrics: HTTP %s", resp.Status)
	}
	return metrics.ParseText(resp.Body)
}

// computeTypes is how many of hardware.Catalog's leading entries are the
// Meteor mix's compute node types: three i386 PIII models with Myrinet,
// an Athlon and an IA-64 without.
const computeTypes = 5

// fleet draws n compute nodes from the heterogeneous Meteor mix in equal
// shares, in a seeded order, each with a seeded unique MAC.
func fleet(rng *rand.Rand, n int) []hardware.Profile {
	catalog := hardware.Catalog(hardware.NewMACAllocator())[:computeTypes]
	macs := newMACs(rng)
	out := make([]hardware.Profile, n)
	for i, k := range rng.Perm(n) {
		hw := catalog[k%computeTypes]
		hw.NICs = append([]hardware.NIC(nil), hw.NICs...)
		for j := range hw.NICs {
			hw.NICs[j].MAC = macs()
		}
		out[i] = hw
	}
	return out
}

// newMACs returns a generator of seeded, distinct, locally administered
// MACs (never colliding with the frontend's own allocator).
func newMACs(rng *rand.Rand) func() string {
	seen := map[uint32]bool{}
	return func() string {
		for {
			v := rng.Uint32() & 0xffffff
			if !seen[v] {
				seen[v] = true
				return fmt.Sprintf("02:b0:0c:%02x:%02x:%02x", byte(v>>16), byte(v>>8), byte(v))
			}
		}
	}
}

// reinstallPass shoot-nodes every node of the integrated fleet once, in a
// seeded order; a node is done at its up event.
func reinstallPass(w workload, f *frontend, rng *rand.Rand, hooks phaseHooks) (passResult, error) {
	var p passResult
	c, nodes := f.c, f.nodes
	order := rng.Perm(len(nodes))
	p.attempted = len(nodes)
	p.windows = make(map[string]nodeWindow, len(nodes))
	var mu sync.Mutex
	tp, err := beginTimed(c, w.subscription(), &p, hooks)
	if err != nil {
		return p, err
	}
	closedLoop(len(order), func(i int) {
		n := nodes[order[i]]
		win := nodeWindow{mac: n.MAC(), name: n.Name(), ip: n.IP()}
		done := tp.log.await(win.mac)
		win.start = time.Now()
		if err := c.ShootNode(win.name); err == nil {
			select {
			case e := <-done:
				win.end, win.ok = e.time, e.typ == lifecycle.EventUp
			case <-time.After(nodeDeadline):
			}
		}
		mu.Lock()
		p.windows[win.mac] = win
		mu.Unlock()
	})
	hooks.atEnd()
	if err := tp.finish(); err != nil {
		return p, err
	}
	checkReinstall(c, w, nodes, &p)
	return p, nil
}

// integratePass powers a seeded blank fleet on one machine at a time, as
// IntegrateNodes does, while insert-ethers listens: each node is
// discovered, bound and installed, and is done at its up event.
func integratePass(w workload, f *frontend, rng *rand.Rand, hooks phaseHooks) (passResult, error) {
	var p passResult
	c := f.c
	hw := fleet(rng, w.nodes)
	nodes := make([]*node.Node, len(hw))
	p.attempted = len(hw)
	p.windows = make(map[string]nodeWindow, len(hw))
	tp, err := beginTimed(c, w.subscription(), &p, hooks)
	if err != nil {
		return p, err
	}
	for i := range hw {
		n := node.New(hw[i])
		nodes[i] = n
		win := nodeWindow{mac: n.MAC()}
		done := tp.log.await(win.mac)
		win.start = time.Now()
		c.PowerOn(n)
		select {
		case e := <-done:
			win.end, win.ok = e.time, e.typ == lifecycle.EventUp
		case <-time.After(nodeDeadline):
		}
		win.name, win.ip = n.Name(), n.IP()
		p.windows[win.mac] = win
	}
	hooks.atEnd()
	err = tp.finish()
	f.ie.Stop()
	f.ie = nil
	if err != nil {
		return p, err
	}
	checkReinstall(c, w, nodes, &p)
	return p, nil
}

// checkReinstall verifies the pass's outputs. A node fails if it did not
// come up exactly once, its package set differs from its class's, it
// reported actionable drift or a corrupt package, it demoted a relay peer,
// or the hosts report does not list it exactly once. An integrated node
// must also have been bound exactly once, to an IP and a name no other
// node has.
func checkReinstall(c *core.Cluster, w workload, nodes []*node.Node, p *passResult) {
	bad := map[string]string{}
	ups, bound := map[string]int{}, map[string]int{}
	for _, e := range p.events {
		switch e.typ {
		case lifecycle.EventBound:
			bound[e.mac]++
		case lifecycle.EventUp:
			ups[e.mac]++
		case lifecycle.EventPackageCorrupt, lifecycle.EventInstallFailed, lifecycle.EventInstallAborted,
			lifecycle.EventRelayDemoted:
			fail(bad, e.mac, string(e.typ)+": "+e.detail)
		}
	}
	ref := map[string]string{} // class → package manifest
	for _, n := range nodes {
		mac := n.MAC()
		if !p.windows[mac].ok {
			fail(bad, mac, "did not come up within the deadline")
		}
		if ups[mac] != 1 {
			fail(bad, mac, fmt.Sprintf("came up %d times in the timed phase", ups[mac]))
		}
		class := n.HW.Model
		m := n.PackageDB().Manifest()
		if r, ok := ref[class]; !ok {
			ref[class] = m
		} else if r != m {
			fail(bad, mac, "package set differs from its class ("+class+")")
		}
	}
	for _, f := range c.FactsInventory().Facts {
		if f.Actionable {
			fail(bad, f.MAC, "actionable drift in the facts inventory")
		}
	}
	hosts := hostsCount(c)
	for _, n := range nodes {
		if hosts[n.Name()] != 1 {
			fail(bad, n.MAC(), fmt.Sprintf("listed %d times in /etc/hosts", hosts[n.Name()]))
		}
	}
	if w.integrate {
		checkBindings(c, p, bound, bad)
	}
	if w.relays {
		relay := delta(p, "rocks_dist_relay_package_bytes_total")
		if relay <= 0 {
			p.problems = append(p.problems, "relay workload served no package bytes from peers")
		}
	}
	finishChecks(p, bad)
}

// fail records a node's first failed check.
func fail(bad map[string]string, mac, reason string) {
	if _, ok := bad[mac]; !ok {
		bad[mac] = reason
	}
}

// finishChecks turns per-node failures into the pass's counts and keeps
// latencies of the nodes that passed.
func finishChecks(p *passResult, bad map[string]string) {
	macs := make([]string, 0, len(p.windows))
	for mac := range p.windows {
		macs = append(macs, mac)
	}
	sort.Strings(macs)
	for _, mac := range macs {
		win := p.windows[mac]
		if reason, isBad := bad[mac]; isBad || !win.ok {
			p.failed++
			if len(p.problems) < 10 {
				p.problems = append(p.problems, fmt.Sprintf("node %s (%s): %s", win.name, mac, reason))
			}
			continue
		}
		p.completed++
		p.latencies = append(p.latencies, float64(win.end.Sub(win.start))/float64(time.Millisecond))
	}
}

// hostsCount reads the frontend's /etc/hosts report and counts each
// hostname's lines.
func hostsCount(c *core.Cluster) map[string]int {
	out := map[string]int{}
	data, err := c.Frontend.Disk().ReadFile("/etc/hosts")
	if err != nil {
		return out
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && !strings.HasPrefix(f[0], "#") {
			out[f[len(f)-1]]++
		}
	}
	return out
}

// discoverPass drives seeded blank MACs through DISCOVER → insert-ethers →
// OFFER → REQUEST/ACK → kickstart.cgi on a frontend whose insert-ethers
// is listening; a node is done when its profile parses.
func discoverPass(w workload, f *frontend, rng *rand.Rand, hooks phaseHooks) (passResult, error) {
	var p passResult
	c := f.c
	next := newMACs(rng)
	macs := make([]string, w.nodes)
	for i := range macs {
		macs[i] = next()
	}
	// Each node fetches its kickstart file with a client configured like
	// the installer's default: bounded timeout, shared default transport.
	client := &http.Client{Timeout: nodeDeadline}
	p.attempted = len(macs)
	p.windows = make(map[string]nodeWindow, len(macs))
	bad := map[string]string{}
	var mu sync.Mutex
	var discovers atomic.Int64
	tp, err := beginTimed(c, w.subscription(), &p, hooks)
	if err != nil {
		return p, err
	}
	closedLoop(len(macs), func(i int) {
		win, err := discoverNode(c.Bus, client, c.BaseURL(), macs[i], &discovers)
		mu.Lock()
		p.windows[win.mac] = win
		if err != nil {
			bad[win.mac] = err.Error()
			if strings.HasPrefix(err.Error(), errNoAck) {
				p.noAcks++
			}
		}
		mu.Unlock()
	})
	hooks.atEnd()
	p.discovers = int(discovers.Load())
	err = tp.finish()
	f.ie.Stop()
	f.ie = nil
	if err != nil {
		return p, err
	}
	checkDiscover(c, &p, bad)
	return p, nil
}

// discoverNode is one blank machine's first boot up to its kickstart file,
// leasing as the installer does: DISCOVER every millisecond until an OFFER
// comes, then one REQUEST, which must be ACKed.
func discoverNode(bus *dhcp.Bus, client *http.Client, base, mac string, discovers *atomic.Int64) (nodeWindow, error) {
	win := nodeWindow{mac: mac, start: time.Now()}
	deadline := win.start.Add(nodeDeadline)
	var offer dhcp.Packet
	xid := uint32(0)
	for {
		xid++
		discovers.Add(1)
		var ok bool
		if offer, ok = bus.Broadcast(dhcp.Packet{Type: dhcp.Discover, Xid: xid, MAC: mac}); ok {
			break
		}
		if time.Now().After(deadline) {
			return win, fmt.Errorf("no OFFER within %s", nodeDeadline)
		}
		time.Sleep(time.Millisecond)
	}
	win.offer = time.Now()
	ack, ok := bus.Broadcast(dhcp.Packet{Type: dhcp.Request, Xid: xid, MAC: mac})
	if !ok || ack.Type != dhcp.Ack || ack.YourIP != offer.YourIP {
		return win, fmt.Errorf("%s: offered %s, REQUEST answered %v %+v", errNoAck, offer.YourIP, ok, ack)
	}
	win.name, win.ip = ack.Hostname, ack.YourIP
	req, err := http.NewRequest("GET", base+"/install/kickstart.cgi?arch=i386", nil)
	if err != nil {
		return win, err
	}
	req.Header.Set(installer.ClientIPHeader, ack.YourIP)
	resp, err := client.Do(req)
	if err != nil {
		return win, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return win, err
	}
	if resp.StatusCode != http.StatusOK {
		return win, fmt.Errorf("kickstart.cgi: HTTP %s", resp.Status)
	}
	profile, err := kickstart.ParseProfile(string(body))
	if err != nil {
		return win, fmt.Errorf("kickstart profile: %w", err)
	}
	if len(profile.Packages) == 0 {
		return win, fmt.Errorf("kickstart profile lists no packages")
	}
	win.end, win.ok = time.Now(), true
	return win, nil
}

// checkDiscover verifies that every MAC was bound exactly once, to a
// unique IP and name, and is listed once in the flushed hosts report.
func checkDiscover(c *core.Cluster, p *passResult, bad map[string]string) {
	bound := map[string]int{}
	for _, e := range p.events {
		if e.typ == lifecycle.EventBound {
			bound[e.mac]++
		}
	}
	checkBindings(c, p, bound, bad)
	finishChecks(p, bad)
}

// checkBindings fails every node of the pass that was not bound exactly
// once (bound counts its bound events), whose database row does not match
// the name it holds, or that shares its IP or name with another node, or
// is not listed once in the flushed hosts report.
func checkBindings(c *core.Cluster, p *passResult, bound map[string]int, bad map[string]string) {
	hosts := hostsCount(c)
	ips, names := map[string]string{}, map[string]string{}
	for mac, win := range p.windows {
		row, ok, err := clusterdb.NodeByMAC(c.DB, mac)
		switch {
		case err != nil || !ok:
			fail(bad, mac, "no database row")
			continue
		case bound[mac] != 1:
			fail(bad, mac, fmt.Sprintf("bound %d times", bound[mac]))
		case row.Name != win.name && win.ok:
			fail(bad, mac, fmt.Sprintf("leased hostname %q but the database says %q", win.name, row.Name))
		case hosts[row.Name] != 1:
			fail(bad, mac, fmt.Sprintf("listed %d times in /etc/hosts", hosts[row.Name]))
		}
		if other, dup := ips[row.IP]; dup {
			fail(bad, mac, "IP "+row.IP+" also bound to "+other)
		}
		if other, dup := names[row.Name]; dup {
			fail(bad, mac, "name "+row.Name+" also bound to "+other)
		}
		ips[row.IP], names[row.Name] = mac, mac
	}
}

// delta is a counter family's growth over the timed phase.
func delta(p *passResult, family string) float64 {
	return p.after.Sum(family) - p.before.Sum(family)
}
