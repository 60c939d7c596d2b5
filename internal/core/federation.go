package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rocks/internal/apiclient"
	"rocks/internal/clusterdb"
	"rocks/internal/dist"
	"rocks/internal/federation"
	"rocks/internal/hardware"
	"rocks/internal/lifecycle"
	"rocks/internal/ring"
)

// The federated frontend hierarchy makes the management plane match the
// distribution plane (§6.2): a child frontend is a full Cluster that
// mirrors its parent's distribution (a very durable relay), registers the
// shard of the node population it owns over /v1/federation/register, and
// forwards its lifecycle events upstream. The parent's query plane —
// /v1/nodes, /v1/events, /v1/dbreport, /metrics — fans out to children,
// merges shard results with per-shard provenance, and tolerates a dark
// child by flagging partial results instead of failing. Re-mirrors
// cascade: POST /v1/federation/remirror at the top re-mirrors every level
// against its parent with the delta baseline, so an unchanged tree moves
// zero package bodies anywhere.

// Cluster roles. A mid-tier frontend in a three-level hierarchy has both
// a parent and children; Role reports "child" for it (the parent URL is
// what shapes its behavior), and /v1/federation exposes both sides.
const (
	RoleStandalone = "standalone"
	RoleParent     = "parent"
	RoleChild      = "child"
)

// fedMirrorRing bounds the forwarded-event mirror the parent keeps per
// child — the stale fallback served when that child goes dark.
const fedMirrorRing = 4096

// defaultFederationTimeout bounds each parent→child fan-out request; a
// dark child must cost one bounded wait, not a hung merged query.
const defaultFederationTimeout = 2 * time.Second

// fedState is a cluster's federation half: its own shard declaration, the
// upstream link when it is a child, and the downstream registry when it
// is a parent. Always constructed (cheap when unused) so every query path
// can consult it without nil checks.
type fedState struct {
	c         *Cluster
	shard     federation.Shard
	parentURL string
	client    *http.Client // bounded client for all federation HTTP

	mu        sync.Mutex
	forwarder *lifecycle.Forwarder // child-side upstream stream; nil otherwise
	children  map[string]*fedChild // by shard name

	received      atomic.Uint64 // events ingested from children
	registrations atomic.Uint64
	fanoutErrors  atomic.Uint64 // failed child fetches across fan-outs
	deduped       atomic.Uint64 // duplicates dropped by merged queries

	factsForwarded     atomic.Uint64 // facts reports relayed upstream
	factsForwardErrors atomic.Uint64 // upstream facts relays that failed
}

// fedChild is one registered child frontend.
type fedChild struct {
	shard      federation.Shard
	url        string
	client     *apiclient.Client
	registered time.Time

	mu        sync.Mutex
	lastSeen  time.Time
	forwarded uint64
	lastSeq   uint64
	dark      bool
	mirror    *ring.Ring[lifecycle.Event] // forwarded events, shard-stamped
	// Last successful /metrics exposition and when it was scraped: the
	// stale fallback a merged scrape serves while the child is dark, aged
	// by rocks_federation_child_last_scrape_seconds.
	lastExpo   string
	lastExpoAt time.Time
}

func newFedState(c *Cluster) *fedState {
	timeout := c.cfg.FederationTimeout
	if timeout <= 0 {
		timeout = defaultFederationTimeout
	}
	return &fedState{
		c:         c,
		shard:     c.cfg.Shard,
		parentURL: strings.TrimSuffix(c.cfg.Parent, "/"),
		client:    &http.Client{Timeout: timeout},
		children:  make(map[string]*fedChild),
	}
}

// Role reports how this frontend participates in the hierarchy.
func (c *Cluster) Role() string {
	if c.fed.parentURL != "" {
		return RoleChild
	}
	if len(c.fed.childSnapshot()) > 0 {
		return RoleParent
	}
	return RoleStandalone
}

// Shard returns this frontend's shard declaration.
func (c *Cluster) Shard() federation.Shard { return c.fed.shard }

// childSnapshot returns the registered children sorted by shard name —
// the deterministic fan-out order every merged query uses.
func (f *fedState) childSnapshot() []*fedChild {
	f.mu.Lock()
	out := make([]*fedChild, 0, len(f.children))
	for _, ch := range f.children {
		out = append(out, ch)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].shard.Name < out[j].shard.Name })
	return out
}

// markResult records a fan-out attempt's outcome on the child.
func (ch *fedChild) markResult(ok bool) {
	ch.mu.Lock()
	ch.dark = !ok
	if ok {
		ch.lastSeen = time.Now()
	}
	ch.mu.Unlock()
}

// ingest appends forwarded events to the child's bounded mirror.
func (ch *fedChild) ingest(events []lifecycle.Event) {
	ch.mu.Lock()
	for _, e := range events {
		if e.Shard == "" {
			e.Shard = ch.shard.Name
		}
		if e.Shard == ch.shard.Name && e.Seq > ch.lastSeq {
			ch.lastSeq = e.Seq
		}
		ch.mirror.Push(e)
	}
	ch.forwarded += uint64(len(events))
	ch.lastSeen = time.Now()
	ch.dark = false
	ch.mu.Unlock()
}

// mirrorEvents returns the child's forwarded history matching the filter
// — the stale view a merged query falls back to when the child is dark.
func (ch *fedChild) mirrorEvents(f lifecycle.Filter) []lifecycle.Event {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.mirror.Select(f.Matches, f.Limit)
}

// getForwarder reads the child-side forwarder (nil until startForwarder).
func (f *fedState) getForwarder() *lifecycle.Forwarder {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.forwarder
}

// upstreamClient builds an apiclient for this frontend's parent.
func (f *fedState) upstreamClient() *apiclient.Client {
	return &apiclient.Client{
		Base:  f.parentURL,
		Actor: "federation/" + f.shard.Name,
		HTTP:  f.client,
	}
}

// registerWithParent announces this child's shard and URL upstream. New
// calls it synchronously: a child that cannot reach its declared parent
// fails construction the same way a failed parent mirror does.
func (f *fedState) registerWithParent() error {
	params := url.Values{
		"shard": {f.shard.String()},
		"url":   {f.c.baseURL},
	}
	if f.shard.Membership != 0 {
		params.Set("membership", fmt.Sprint(f.shard.Membership))
	}
	return f.upstreamClient().Post("federation/register", params, nil)
}

// startForwarder begins streaming this child's lifecycle events to the
// parent. The goroutine is tracked on the cluster WaitGroup so Close
// remains leak-free.
func (f *fedState) startForwarder() {
	cl := f.upstreamClient()
	shard := f.shard.Name
	fw := lifecycle.StartForwarder(f.c.ctx, f.c.events, lifecycle.ForwarderOptions{FlushInterval: 20 * time.Millisecond},
		func(events []lifecycle.Event) error {
			body, err := json.Marshal(events)
			if err != nil {
				return err
			}
			u := cl.Base + "/v1/federation/events?shard=" + url.QueryEscape(shard)
			req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Rocks-Actor", cl.Actor)
			resp, err := f.client.Do(req)
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("federation forward: parent returned HTTP %d", resp.StatusCode)
			}
			return nil
		})
	f.mu.Lock()
	f.forwarder = fw
	f.mu.Unlock()
	f.c.wg.Add(1)
	go func() {
		defer f.c.wg.Done()
		<-fw.Done()
	}()
}

// forwardFacts relays a facts report upstream under this frontend's own
// shard name, so the parent's merged inventory carries subtree provenance.
// Best-effort and asynchronous — a dark parent must never stall a node's
// first boot — but accounted, and the goroutine is tracked on the cluster
// WaitGroup and carries the cluster context so Close stays leak-free.
func (f *fedState) forwardFacts(facts hardware.Facts) {
	if f.parentURL == "" {
		return
	}
	body, err := json.Marshal(facts)
	if err != nil {
		f.factsForwardErrors.Add(1)
		return
	}
	f.c.wg.Add(1)
	go func() {
		defer f.c.wg.Done()
		u := f.parentURL + "/v1/facts?shard=" + url.QueryEscape(f.shard.Name)
		req, err := http.NewRequestWithContext(f.c.ctx, http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			f.factsForwardErrors.Add(1)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Rocks-Actor", "federation/"+f.shard.Name)
		resp, err := f.client.Do(req)
		if err != nil {
			f.factsForwardErrors.Add(1)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			f.factsForwardErrors.Add(1)
			return
		}
		f.factsForwarded.Add(1)
	}()
}

// FederationChildInfo is one child's row in the /v1/federation view.
type FederationChildInfo struct {
	Shard      federation.Shard `json:"shard"`
	URL        string           `json:"url"`
	Registered time.Time        `json:"registered"`
	LastSeen   time.Time        `json:"last_seen"`
	Forwarded  uint64           `json:"forwarded"`
	LastSeq    uint64           `json:"last_seq,omitempty"`
	Dark       bool             `json:"dark,omitempty"`
	Mirrored   int              `json:"mirrored"`
}

// FederationResponse is the /v1/federation payload.
type FederationResponse struct {
	Role     string                `json:"role"`
	Shard    federation.Shard      `json:"shard"`
	Parent   string                `json:"parent,omitempty"`
	Children []FederationChildInfo `json:"children"`
	Received uint64                `json:"received"`
	// Child-side forwarder traffic; all zero on parents and standalones.
	Forwarded     uint64 `json:"forwarded,omitempty"`
	ForwardErrors uint64 `json:"forward_errors,omitempty"`
	ForwardDrops  uint64 `json:"forward_drops,omitempty"`
	// Child-side facts relays (upstream inventory provenance).
	FactsForwarded     uint64 `json:"facts_forwarded,omitempty"`
	FactsForwardErrors uint64 `json:"facts_forward_errors,omitempty"`
}

func (c *Cluster) opFederation(r *http.Request) (interface{}, *apiError) {
	resp := FederationResponse{
		Role:     c.Role(),
		Shard:    c.fed.shard,
		Parent:   c.fed.parentURL,
		Children: []FederationChildInfo{},
		Received: c.fed.received.Load(),
	}
	for _, ch := range c.fed.childSnapshot() {
		ch.mu.Lock()
		resp.Children = append(resp.Children, FederationChildInfo{
			Shard: ch.shard, URL: ch.url, Registered: ch.registered,
			LastSeen: ch.lastSeen, Forwarded: ch.forwarded,
			LastSeq: ch.lastSeq, Dark: ch.dark, Mirrored: ch.mirror.Len(),
		})
		ch.mu.Unlock()
	}
	if fw := c.fed.getForwarder(); fw != nil {
		resp.Forwarded, resp.ForwardErrors, resp.ForwardDrops = fw.Stats()
	}
	resp.FactsForwarded = c.fed.factsForwarded.Load()
	resp.FactsForwardErrors = c.fed.factsForwardErrors.Load()
	return resp, nil
}

// opFedRegister admits (or re-admits) a child frontend. Re-registration
// under the same shard name replaces the URL and keeps going — a child
// restart re-announces itself; its mirror restarts empty because the new
// life's bus restarts its sequence numbers.
func (c *Cluster) opFedRegister(r *http.Request) (interface{}, *apiError) {
	spec := r.FormValue("shard")
	if spec == "" {
		return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "missing shard parameter")
	}
	shard, err := federation.ParseShard(spec)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "bad_parameter", "%v", err)
	}
	if m := r.FormValue("membership"); m != "" {
		mm, aerr := formInt(r, "membership", 0, 0)
		if aerr != nil {
			return nil, aerr
		}
		shard.Membership = mm
	}
	childURL := r.FormValue("url")
	u, err := url.Parse(childURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, apiErrorf(http.StatusBadRequest, "bad_parameter",
			"parameter url: %q is not an absolute http URL", childURL)
	}
	if shard.Name == c.fed.shard.Name {
		return nil, apiErrorf(http.StatusConflict, "shard_conflict",
			"shard %q is this frontend's own shard", shard.Name)
	}
	ch := &fedChild{
		shard:      shard,
		url:        strings.TrimSuffix(childURL, "/"),
		registered: time.Now(),
		lastSeen:   time.Now(),
		mirror:     ring.New[lifecycle.Event](fedMirrorRing),
	}
	ch.client = &apiclient.Client{Base: ch.url, Actor: "federation/" + c.fed.shard.Name, HTTP: c.fed.client}
	c.fed.mu.Lock()
	c.fed.children[shard.Name] = ch
	c.fed.mu.Unlock()
	c.fed.registrations.Add(1)
	c.events.Publish(lifecycle.Event{
		Node: "frontend-0", Phase: lifecycle.PhaseRun, Type: lifecycle.EventUp,
		Source: "federation", Detail: fmt.Sprintf("child frontend %s registered (%s)", shard, ch.url),
	})
	return map[string]interface{}{"status": "registered", "parent": c.fed.shard.Name}, nil
}

// opFedEvents is the upstream forwarder's sink: POST ingests a JSON array
// of a registered child's events into its mirror (and relays them further
// up when this frontend is itself a child); GET reads the ingest totals.
// The endpoint accepts POST without auditing each batch — forwarding is
// telemetry, not an administrative mutation.
func (c *Cluster) opFedEvents(r *http.Request) (interface{}, *apiError) {
	if r.Method != http.MethodPost {
		return map[string]uint64{"received": c.fed.received.Load()}, nil
	}
	shardName := r.URL.Query().Get("shard")
	c.fed.mu.Lock()
	ch := c.fed.children[shardName]
	c.fed.mu.Unlock()
	if ch == nil {
		return nil, apiErrorf(http.StatusNotFound, "unknown_shard",
			"shard %q is not registered; POST /v1/federation/register first", shardName)
	}
	var events []lifecycle.Event
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	if err := dec.Decode(&events); err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "bad_body", "decoding event batch: %v", err)
	}
	ch.ingest(events)
	c.fed.received.Add(uint64(len(events)))
	if fw := c.fed.getForwarder(); fw != nil {
		// Mid-tier: relay the grandchild's events (already shard-stamped
		// by ingest) further up the hierarchy.
		stamped := make([]lifecycle.Event, len(events))
		for i, e := range events {
			if e.Shard == "" {
				e.Shard = ch.shard.Name
			}
			stamped[i] = e
		}
		fw.Enqueue(stamped)
	}
	return map[string]interface{}{"status": "accepted", "events": len(events)}, nil
}

// --- merged query plane -------------------------------------------------

// NodesResponse is the /v1/nodes payload: this frontend's population
// joined with live state, plus — on a parent — the merged shard listings
// with per-shard provenance.
type NodesResponse struct {
	Shard   string                   `json:"shard"`
	Nodes   []federation.NodeRow     `json:"nodes"`
	Shards  []federation.ShardStatus `json:"shards,omitempty"`
	Partial bool                     `json:"partial,omitempty"`
	Deduped int                      `json:"deduped,omitempty"`
}

// lastActivity indexes the bus ring's most recent event per identity
// (hostname and MAC) — the recency a cross-shard node merge compares.
func (c *Cluster) lastActivity() map[string]lifecycle.Event {
	idx := make(map[string]lifecycle.Event)
	for _, e := range c.events.Recent(lifecycle.Filter{}) {
		if e.Node != "" {
			idx[e.Node] = e
		}
		if e.MAC != "" {
			idx[e.MAC] = e
		}
	}
	return idx
}

func (c *Cluster) opNodes(r *http.Request) (interface{}, *apiError) {
	rows, err := clusterdb.Nodes(c.DB, "")
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "db_error", "%v", err)
	}
	last := c.lastActivity()
	resp := NodesResponse{Shard: c.fed.shard.Name, Nodes: make([]federation.NodeRow, 0, len(rows))}
	for _, n := range rows {
		row := federation.NodeRow{
			Name: n.Name, MAC: n.MAC, IP: n.IP, Membership: n.Membership,
			Rack: n.Rack, Rank: n.Rank, Arch: n.Arch, CPUs: n.CPUs,
		}
		c.mu.Lock()
		if tracked, ok := c.nodes[n.MAC]; ok {
			row.State = string(tracked.State())
		}
		c.mu.Unlock()
		if e, ok := last[n.MAC]; ok {
			row.LastSeq, row.LastEvent = e.Seq, e.Time
		} else if e, ok := last[n.Name]; ok {
			row.LastSeq, row.LastEvent = e.Seq, e.Time
		}
		resp.Nodes = append(resp.Nodes, row)
	}
	return resp, nil
}

// fanNodes merges every child's /v1/nodes into the local listing. A dark
// child contributes a failed ShardStatus and flips Partial; it never
// turns the merged read into an error.
func (c *Cluster) fanNodes(r *http.Request, payload interface{}) (interface{}, *apiError) {
	children := c.fed.childSnapshot()
	local := payload.(NodesResponse)
	if len(children) == 0 {
		return local, nil
	}
	type result struct {
		resp NodesResponse
		err  error
	}
	results := make([]result, len(children))
	var wg sync.WaitGroup
	for i, ch := range children {
		wg.Add(1)
		go func(i int, ch *fedChild) {
			defer wg.Done()
			results[i].err = ch.client.Get("nodes", nil, &results[i].resp)
		}(i, ch)
	}
	wg.Wait()

	batches := []federation.NodeBatch{{Shard: local.Shard, Nodes: local.Nodes}}
	merged := NodesResponse{Shard: local.Shard}
	for i, ch := range children {
		st := federation.ShardStatus{Shard: ch.shard.Name, URL: ch.url, OK: results[i].err == nil}
		ch.markResult(st.OK)
		if st.OK {
			st.Count = len(results[i].resp.Nodes)
			merged.Partial = merged.Partial || results[i].resp.Partial
			batches = append(batches, federation.NodeBatch{Shard: ch.shard.Name, Nodes: results[i].resp.Nodes})
			merged.Shards = append(merged.Shards, st)
			merged.Shards = append(merged.Shards, results[i].resp.Shards...)
			merged.Deduped += results[i].resp.Deduped
			continue
		}
		st.Error = results[i].err.Error()
		merged.Partial = true
		c.fed.fanoutErrors.Add(1)
		merged.Shards = append(merged.Shards, st)
	}
	nodes, deduped := federation.MergeNodes(batches)
	merged.Nodes = nodes
	merged.Deduped += deduped
	c.fed.deduped.Add(uint64(deduped))
	return merged, nil
}

// EventsResponse is the /v1/events payload. The federation fields are
// empty on a standalone frontend, so the pre-federation response shape is
// byte-compatible.
type EventsResponse struct {
	Events  []lifecycle.Event        `json:"events"`
	Seq     uint64                   `json:"seq"`
	Dropped uint64                   `json:"dropped"`
	Shard   string                   `json:"shard,omitempty"`
	Shards  []federation.ShardStatus `json:"shards,omitempty"`
	Partial bool                     `json:"partial,omitempty"`
	Deduped int                      `json:"deduped,omitempty"`
}

// eventQuery parses /v1/events' filter parameters: node, type, phase,
// source, since and limit. opEvents reports its errors; the fan-out and
// the mirror fallback run only after opEvents accepted the request.
func eventQuery(r *http.Request) (lifecycle.Filter, *apiError) {
	since, aerr := formInt(r, "since", 0, 0)
	if aerr != nil {
		return lifecycle.Filter{}, aerr
	}
	limit, aerr := formInt(r, "limit", 0, 0)
	if aerr != nil {
		return lifecycle.Filter{}, aerr
	}
	return lifecycle.Filter{
		Node:     r.FormValue("node"),
		Type:     lifecycle.EventType(r.FormValue("type")),
		Phase:    lifecycle.Phase(r.FormValue("phase")),
		Source:   r.FormValue("source"),
		SinceSeq: uint64(since),
		Limit:    limit,
	}, nil
}

// fanEvents merges child event streams into the local view: live child
// queries when possible, each child's forwarded mirror (flagged stale)
// when it is dark, deduplicated on (MAC, seq) so a node whose child
// re-registered mid-query cannot appear twice.
func (c *Cluster) fanEvents(r *http.Request, payload interface{}) (interface{}, *apiError) {
	children := c.fed.childSnapshot()
	local := payload.(EventsResponse)
	if len(children) == 0 {
		return local, nil
	}
	filter, _ := eventQuery(r)
	params := url.Values{}
	for k, vs := range r.URL.Query() {
		params[k] = vs
	}
	type result struct {
		resp EventsResponse
		err  error
	}
	results := make([]result, len(children))
	var wg sync.WaitGroup
	for i, ch := range children {
		wg.Add(1)
		go func(i int, ch *fedChild) {
			defer wg.Done()
			results[i].err = ch.client.Get("events", params, &results[i].resp)
		}(i, ch)
	}
	wg.Wait()

	merged := EventsResponse{Seq: local.Seq, Dropped: local.Dropped, Shard: c.fed.shard.Name}
	batches := []federation.EventBatch{{Shard: c.fed.shard.Name, Events: local.Events}}
	for i, ch := range children {
		st := federation.ShardStatus{Shard: ch.shard.Name, URL: ch.url, OK: results[i].err == nil}
		ch.markResult(st.OK)
		if st.OK {
			st.Count = len(results[i].resp.Events)
			merged.Partial = merged.Partial || results[i].resp.Partial
			merged.Deduped += results[i].resp.Deduped
			batches = append(batches, federation.EventBatch{Shard: ch.shard.Name, Events: results[i].resp.Events})
			merged.Shards = append(merged.Shards, st)
			merged.Shards = append(merged.Shards, results[i].resp.Shards...)
			continue
		}
		// Dark child: fall back to the forwarded mirror, honestly flagged.
		st.Error = results[i].err.Error()
		st.Stale = true
		mirror := ch.mirrorEvents(filter)
		st.Count = len(mirror)
		merged.Partial = true
		c.fed.fanoutErrors.Add(1)
		batches = append(batches, federation.EventBatch{Shard: ch.shard.Name, Events: mirror})
		merged.Shards = append(merged.Shards, st)
	}
	events, deduped := federation.MergeEvents(batches, filter.Limit)
	merged.Events = events
	merged.Deduped += deduped
	c.fed.deduped.Add(uint64(deduped))
	return merged, nil
}

// DBReportResponse is the /v1/dbreport payload: one of clusterdb's
// canonical text reports, concatenated across shards on a parent.
type DBReportResponse struct {
	Shard   string                   `json:"shard"`
	Report  string                   `json:"report"`
	Kind    string                   `json:"kind"`
	Shards  []federation.ShardStatus `json:"shards,omitempty"`
	Partial bool                     `json:"partial,omitempty"`
}

// opDBReport serves the dbreport tool's views over the control plane, so
// the offline cmd/dbreport and the live API render the same text — and a
// parent can concatenate every shard's report under one heading each.
func (c *Cluster) opDBReport(r *http.Request) (interface{}, *apiError) {
	kind := formOr(r, "report", "nodes")
	var report string
	var err error
	switch kind {
	case "nodes":
		report, err = clusterdb.NodesTableReport(c.DB)
	case "memberships":
		report, err = clusterdb.MembershipsTableReport(c.DB)
	case "hosts":
		report, err = clusterdb.HostsReport(c.DB)
	case "dhcp":
		report, err = clusterdb.DHCPReport(c.DB)
	case "pbs":
		report, err = clusterdb.PBSNodesReport(c.DB)
	default:
		return nil, apiErrorf(http.StatusBadRequest, "bad_parameter",
			"parameter report: unknown report %q (nodes|memberships|hosts|dhcp|pbs)", kind)
	}
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "report_failed", "%v", err)
	}
	return DBReportResponse{Shard: c.fed.shard.Name, Report: report, Kind: kind}, nil
}

// fanDBReport concatenates child reports under per-shard headings.
func (c *Cluster) fanDBReport(r *http.Request, payload interface{}) (interface{}, *apiError) {
	children := c.fed.childSnapshot()
	local := payload.(DBReportResponse)
	if len(children) == 0 {
		return local, nil
	}
	params := url.Values{"report": {local.Kind}}
	type result struct {
		resp DBReportResponse
		err  error
	}
	results := make([]result, len(children))
	var wg sync.WaitGroup
	for i, ch := range children {
		wg.Add(1)
		go func(i int, ch *fedChild) {
			defer wg.Done()
			results[i].err = ch.client.Get("dbreport", params, &results[i].resp)
		}(i, ch)
	}
	wg.Wait()

	var b strings.Builder
	fmt.Fprintf(&b, "== shard %s ==\n%s", local.Shard, local.Report)
	merged := DBReportResponse{Shard: local.Shard, Kind: local.Kind}
	for i, ch := range children {
		st := federation.ShardStatus{Shard: ch.shard.Name, URL: ch.url, OK: results[i].err == nil}
		ch.markResult(st.OK)
		if st.OK {
			merged.Partial = merged.Partial || results[i].resp.Partial
			merged.Shards = append(merged.Shards, st)
			merged.Shards = append(merged.Shards, results[i].resp.Shards...)
			// A child with its own children already carries headings.
			if strings.HasPrefix(results[i].resp.Report, "== shard ") {
				b.WriteString(results[i].resp.Report)
			} else {
				fmt.Fprintf(&b, "== shard %s ==\n%s", ch.shard.Name, results[i].resp.Report)
			}
			continue
		}
		st.Error = results[i].err.Error()
		merged.Partial = true
		c.fed.fanoutErrors.Add(1)
		merged.Shards = append(merged.Shards, st)
		fmt.Fprintf(&b, "== shard %s UNAVAILABLE: %v ==\n", ch.shard.Name, results[i].err)
	}
	merged.Report = b.String()
	return merged, nil
}

// --- cascading re-mirror ------------------------------------------------

// Remirror re-replicates this frontend's parent distribution using the
// previous mirror as the delta baseline: packages whose digests match are
// reused without a body fetch, so an unchanged tree costs manifest
// traffic only. The rebuilt distribution is bound in place (the §3.3
// upgrade idiom) — the serving side reads through c.Dist, so new installs
// and downstream mirrors see it immediately with no server swap.
func (c *Cluster) Remirror() (dist.MirrorReport, error) {
	if c.cfg.ParentURL == "" {
		return dist.MirrorReport{}, fmt.Errorf("core: no parent distribution to re-mirror")
	}
	mirror, report, err := dist.MirrorReportWith(c.cfg.ParentURL, "parent-mirror", dist.MirrorOptions{Baseline: c.mirrorRepo, Context: c.ctx})
	if err != nil {
		return dist.MirrorReport{}, fmt.Errorf("core: re-mirroring parent distribution: %w", err)
	}
	sources := append([]dist.Source{{Name: "parent-mirror", Repo: mirror}}, c.localSources...)
	rebuilt := dist.Build(c.cfg.Name, c.cfg.Framework, sources...)
	*c.Dist = *rebuilt
	c.mirrorRepo = mirror
	c.mirrorReport = &report
	c.events.Publish(lifecycle.Event{
		Node: "frontend-0", Phase: lifecycle.PhaseRun, Type: lifecycle.EventUp,
		Source: "federation", Detail: fmt.Sprintf("re-mirrored parent: %d listed, %d reused, %d fetched",
			report.Listed, report.Skipped, report.Fetched),
	})
	return report, nil
}

// RemirrorResult is the /v1/federation/remirror payload: this level's
// delta report plus every child's, recursively — the whole cascade from
// one POST at the top.
type RemirrorResult struct {
	Shard    string                   `json:"shard"`
	Mirror   *dist.MirrorReport       `json:"mirror,omitempty"` // nil at the hierarchy root
	Shards   []federation.ShardStatus `json:"shards,omitempty"`
	Partial  bool                     `json:"partial,omitempty"`
	Children []RemirrorResult         `json:"children,omitempty"`
}

func (c *Cluster) opFedRemirror(r *http.Request) (interface{}, *apiError) {
	res := RemirrorResult{Shard: c.fed.shard.Name}
	if c.cfg.ParentURL != "" {
		report, err := c.Remirror()
		if err != nil {
			return nil, apiErrorf(http.StatusBadGateway, "remirror_failed", "%v", err)
		}
		res.Mirror = &report
	}
	return res, nil
}

// fanRemirror cascades the re-mirror to children *after* this level has
// re-mirrored (opFedRemirror ran first), so each level pulls from an
// already-updated parent — top-down, exactly like the distribution tree.
func (c *Cluster) fanRemirror(r *http.Request, payload interface{}) (interface{}, *apiError) {
	children := c.fed.childSnapshot()
	local := payload.(RemirrorResult)
	if len(children) == 0 {
		return local, nil
	}
	type result struct {
		resp RemirrorResult
		err  error
	}
	results := make([]result, len(children))
	var wg sync.WaitGroup
	for i, ch := range children {
		wg.Add(1)
		go func(i int, ch *fedChild) {
			defer wg.Done()
			results[i].err = ch.client.Post("federation/remirror", nil, &results[i].resp)
		}(i, ch)
	}
	wg.Wait()
	for i, ch := range children {
		st := federation.ShardStatus{Shard: ch.shard.Name, URL: ch.url, OK: results[i].err == nil}
		ch.markResult(st.OK)
		if st.OK {
			local.Partial = local.Partial || results[i].resp.Partial
			local.Children = append(local.Children, results[i].resp)
			local.Shards = append(local.Shards, st)
			continue
		}
		st.Error = results[i].err.Error()
		local.Partial = true
		c.fed.fanoutErrors.Add(1)
		local.Shards = append(local.Shards, st)
	}
	return local, nil
}

// --- scrape federation --------------------------------------------------

// metricsHandler serves /metrics. A parent aggregates child expositions
// into its own with per-shard labels; a dark child's last successful
// exposition is re-served in place of a live scrape (its series keep their
// last values rather than vanishing), with rocks_federation_child_up at 0
// and rocks_federation_child_last_scrape_seconds growing so alerting can
// see the staleness. The merged text still satisfies the strict parser,
// histograms included.
func (c *Cluster) metricsHandler(w http.ResponseWriter, r *http.Request) {
	var own strings.Builder
	c.metricsReg.WriteText(&own)
	children := c.fed.childSnapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if len(children) == 0 {
		io.WriteString(w, own.String())
		return
	}
	texts := make([]string, len(children))
	errs := make([]error, len(children))
	var wg sync.WaitGroup
	for i, ch := range children {
		wg.Add(1)
		go func(i int, ch *fedChild) {
			defer wg.Done()
			resp, err := c.fed.client.Get(ch.url + "/metrics")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
			if err != nil || resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("scraping %s: HTTP %d (%v)", ch.url, resp.StatusCode, err)
				return
			}
			texts[i] = string(body)
		}(i, ch)
	}
	wg.Wait()
	var shards []federation.ShardExposition
	for i, ch := range children {
		ch.markResult(errs[i] == nil)
		if errs[i] != nil {
			c.fed.fanoutErrors.Add(1)
			ch.mu.Lock()
			stale := ch.lastExpo
			ch.mu.Unlock()
			if stale != "" {
				shards = append(shards, federation.ShardExposition{Shard: ch.shard.Name, Text: stale})
			}
			continue
		}
		ch.mu.Lock()
		ch.lastExpo = texts[i]
		ch.lastExpoAt = time.Now()
		ch.mu.Unlock()
		shards = append(shards, federation.ShardExposition{Shard: ch.shard.Name, Text: texts[i]})
	}
	io.WriteString(w, federation.MergeExpositions(own.String(), shards))
}
