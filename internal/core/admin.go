package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/dist"
	"rocks/internal/hardware"
	"rocks/internal/lifecycle"
	"rocks/internal/node"
)

// The admin API is the simulation's control plane: what an administrator
// reaches over ssh on a real frontend, exposed over HTTP so the cmd/ tools
// (shoot-node, cluster-fork, rocksql, insert-ethers) work as separate
// processes against a running cluster-sim.
//
// Every operation is defined once as an endpoint (run function + audit
// metadata) and served at /v1/<name>: {"data": ...} / {"error": ...}
// envelopes, POST-only mutations (405 otherwise), and an audit record for
// every mutating call.

// apiError is the one structured error shape: machine-readable code,
// human-readable message, and the HTTP status the caller saw, serialized
// as {"error": {...}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"status"`
}

func (e *apiError) Error() string { return e.Message }

func apiErrorf(status int, code, format string, args ...interface{}) *apiError {
	return &apiError{Code: code, Message: fmt.Sprintf(format, args...), Status: status}
}

// endpoint describes one control-plane operation.
type endpoint struct {
	// name is the path suffix under /v1/, and the op label on
	// rocks_api_requests_total.
	name string
	// audit is the audit-log op name; empty marks a read-only endpoint.
	audit string
	// mutates, when set, decides per-request whether the call mutates
	// (sql: only with exec=1). nil on a mutating endpoint means always.
	mutates func(*http.Request) bool
	// detail renders the operation's parameters for the audit record.
	detail func(*http.Request) string
	// run executes the operation and returns the response payload.
	run func(*http.Request) (interface{}, *apiError)
	// fanout, when set, post-processes run's payload on a federated
	// parent: it fans the query out to registered child frontends and
	// merges their shard results into the local payload. Standalone
	// frontends have no children and fan-outs pass through untouched.
	fanout func(*http.Request, interface{}) (interface{}, *apiError)
}

// ForkResponse is the JSON shape of fork/kill results.
type ForkResponse struct {
	Results []ForkHostResult `json:"results"`
	Killed  int              `json:"killed,omitempty"`
}

// ForkHostResult is one host's outcome.
type ForkHostResult struct {
	Host   string `json:"host"`
	Output string `json:"output,omitempty"`
	Error  string `json:"error,omitempty"`
}

// SQLResponse is the JSON shape of /v1/sql results.
type SQLResponse struct {
	Result string `json:"result"`
	Exec   bool   `json:"exec,omitempty"`
}

// ReinstallResult reports what a cluster-wide reinstall actually achieved.
// Converged is only true when every reinstall job completed and every node
// came back up within the deadline; NotUp names the stragglers.
type ReinstallResult struct {
	Status    string   `json:"status"`
	Converged bool     `json:"converged"`
	NotUp     []string `json:"not_up,omitempty"`
}

func (c *Cluster) registerAdmin(mux *http.ServeMux) {
	for _, ep := range c.apiEndpoints() {
		mux.HandleFunc("/v1/"+ep.name, c.v1Handler(ep))
	}
	mux.HandleFunc("/v1/audit", c.v1Handler(c.auditEndpoint()))
}

// apiEndpoints enumerates the control plane: seven mutations and the
// read-only views.
func (c *Cluster) apiEndpoints() []endpoint {
	return []endpoint{
		{
			name:  "sql",
			audit: "sql-exec",
			mutates: func(r *http.Request) bool {
				return r.FormValue("exec") == "1"
			},
			detail: func(r *http.Request) string { return r.FormValue("q") },
			run:    c.opSQL,
		},
		{
			name:  "fork",
			audit: "fork",
			detail: func(r *http.Request) string {
				return fmt.Sprintf("cmd %q query %q", r.FormValue("cmd"), r.FormValue("query"))
			},
			run: c.opFork,
		},
		{
			name:  "kill",
			audit: "kill",
			detail: func(r *http.Request) string {
				return fmt.Sprintf("process %q query %q", r.FormValue("process"), r.FormValue("query"))
			},
			run: c.opKill,
		},
		{
			name:  "shoot",
			audit: "shoot",
			detail: func(r *http.Request) string {
				r.ParseForm()
				return "nodes " + strings.Join(r.Form["node"], ",")
			},
			run: c.opShoot,
		},
		{
			name:  "integrate",
			audit: "integrate",
			detail: func(r *http.Request) string {
				return fmt.Sprintf("count=%s rack=%s membership=%s",
					formOr(r, "count", "1"), formOr(r, "rack", "0"), formOr(r, "membership", "default"))
			},
			run: c.opIntegrate,
		},
		{
			name:   "adduser",
			audit:  "adduser",
			detail: func(r *http.Request) string { return "user " + r.FormValue("name") },
			run:    c.opAddUser,
		},
		{
			name:   "reinstall-cluster",
			audit:  "reinstall-cluster",
			detail: func(r *http.Request) string { return "wait=" + formOr(r, "wait", "120") + "s" },
			run:    c.opReinstall,
		},
		{name: "consistency", run: c.opConsistency},
		{name: "relays", run: c.opRelays},
		{name: "health", run: c.opHealth},
		{name: "supervisor", run: c.opSupervisor},
		{name: "dbstats", run: c.opDBStats},
		{name: "diststats", run: c.opDistStats},
		{name: "events", run: c.opEvents, fanout: c.fanEvents},
		{
			name:  "facts",
			audit: "facts-report",
			// First-boot agent reports are telemetry, not administration:
			// accept POST, never audit (a cluster-wide reinstall's report
			// burst would bury the log).
			mutates: func(*http.Request) bool { return false },
			run:     c.opFacts,
		},
		// The federated management hierarchy: merged queries fan out to
		// child frontends; registration and event forwarding come up from
		// them; remirror cascades down the distribution tree.
		{name: "nodes", run: c.opNodes, fanout: c.fanNodes},
		{name: "dbreport", run: c.opDBReport, fanout: c.fanDBReport},
		{name: "federation", run: c.opFederation},
		{
			name:  "federation/register",
			audit: "federation-register",
			detail: func(r *http.Request) string {
				return fmt.Sprintf("shard %q url %q", r.FormValue("shard"), r.FormValue("url"))
			},
			run: c.opFedRegister,
		},
		{
			name:  "federation/events",
			audit: "federation-forward",
			// Forwarded batches are telemetry, not administration: accept
			// POST, never audit (a 20ms-interval stream would bury the log).
			mutates: func(*http.Request) bool { return false },
			run:     c.opFedEvents,
		},
		{
			name:  "federation/remirror",
			audit: "federation-remirror",
			detail: func(r *http.Request) string {
				return "cascade re-mirror"
			},
			run:    c.opFedRemirror,
			fanout: c.fanRemirror,
		},
	}
}

// opSQL runs a read-only query (q=...); exec=1 permits data-modification
// statements and requires POST.
func (c *Cluster) opSQL(r *http.Request) (interface{}, *apiError) {
	q := r.FormValue("q")
	if q == "" {
		return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "missing q parameter")
	}
	exec := r.FormValue("exec") == "1"
	var res *clusterdb.Result
	var err error
	if exec {
		res, err = c.DB.Exec(q)
	} else {
		res, err = c.DB.Query(q)
	}
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "sql_error", "%v", err)
	}
	if exec {
		c.WriteReports() // mutations may change service configuration
	}
	return SQLResponse{Result: res.Format(), Exec: exec}, nil
}

func (c *Cluster) opFork(r *http.Request) (interface{}, *apiError) {
	cmd := r.FormValue("cmd")
	if cmd == "" {
		return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "missing cmd parameter")
	}
	results, err := c.Fork(r.FormValue("query"), cmd)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "fork_failed", "%v", err)
	}
	resp := ForkResponse{}
	for _, hr := range results {
		out := ForkHostResult{Host: hr.Host, Output: hr.Output}
		if hr.Err != nil {
			out.Error = hr.Err.Error()
		}
		resp.Results = append(resp.Results, out)
	}
	return resp, nil
}

func (c *Cluster) opKill(r *http.Request) (interface{}, *apiError) {
	proc := r.FormValue("process")
	if proc == "" {
		return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "missing process parameter")
	}
	results, killed, err := c.Kill(r.FormValue("query"), proc)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "kill_failed", "%v", err)
	}
	resp := ForkResponse{Killed: killed}
	for _, hr := range results {
		out := ForkHostResult{Host: hr.Host, Output: hr.Output}
		if hr.Err != nil {
			out.Error = hr.Err.Error()
		}
		resp.Results = append(resp.Results, out)
	}
	return resp, nil
}

// opShoot reinstalls the named nodes (node=a&node=b). With watch=1 it waits
// for the first node's eKV port and reports it so the CLI can attach. A
// name the cluster does not track is a 404; a node that vanishes from
// tracking between the shot and the watch is a 500 — never a crash.
func (c *Cluster) opShoot(r *http.Request) (interface{}, *apiError) {
	r.ParseForm()
	names := r.Form["node"]
	if len(names) == 0 {
		return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "missing node parameter")
	}
	if err := c.ShootNode(names...); err != nil {
		if errors.Is(err, ErrUnknownNode) {
			return nil, apiErrorf(http.StatusNotFound, "unknown_node", "%v", err)
		}
		return nil, apiErrorf(http.StatusBadRequest, "shoot_failed", "%v", err)
	}
	resp := map[string]string{"status": "reinstalling"}
	if r.FormValue("watch") == "1" {
		n, ok := c.NodeByName(names[0])
		if !ok {
			return nil, apiErrorf(http.StatusInternalServerError, "node_untracked",
				"node %s was shot but is no longer tracked", names[0])
		}
		// The watch ends early when the client hangs up or the cluster shuts
		// down — a poll must never pin the handler to its full deadline.
		deadline := time.Now().Add(10 * time.Second)
	watch:
		for time.Now().Before(deadline) {
			if addr := n.EKVAddr(); addr != "" {
				resp["ekv"] = addr
				break
			}
			select {
			case <-time.After(2 * time.Millisecond):
			case <-r.Context().Done():
				break watch
			case <-c.ctx.Done():
				break watch
			}
		}
	}
	return resp, nil
}

// opIntegrate powers on `count` new simulated machines and integrates them
// (insert-ethers + sequential boot). Parameters: count, rack, membership,
// mhz, wait (seconds).
func (c *Cluster) opIntegrate(r *http.Request) (interface{}, *apiError) {
	count, aerr := formInt(r, "count", 1, 1)
	if aerr != nil {
		return nil, aerr
	}
	rack, aerr := formInt(r, "rack", 0, 0)
	if aerr != nil {
		return nil, aerr
	}
	membership, aerr := formInt(r, "membership", clusterdb.MembershipCompute, 0)
	if aerr != nil {
		return nil, aerr
	}
	mhz, aerr := formInt(r, "mhz", 733, 1)
	if aerr != nil {
		return nil, aerr
	}
	waitSec, aerr := formInt(r, "wait", 60, 0)
	if aerr != nil {
		return nil, aerr
	}
	wait := time.Duration(waitSec) * time.Second

	profiles := make([]hardware.Profile, count)
	for i := range profiles {
		profiles[i] = hardware.PIIICompute(c.macs, mhz)
	}
	nodes, err := c.IntegrateNodes(profiles, membership, rack, wait)
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "integrate_failed", "%v", err)
	}
	var names []string
	for _, n := range nodes {
		names = append(names, n.Name())
	}
	return map[string]interface{}{"integrated": names}, nil
}

func (c *Cluster) opAddUser(r *http.Request) (interface{}, *apiError) {
	name := r.FormValue("name")
	if name == "" {
		return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "missing name parameter")
	}
	uid, aerr := formInt(r, "uid", 500, 0)
	if aerr != nil {
		return nil, aerr
	}
	if err := c.AddUser(name, uid); err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "adduser_failed", "%v", err)
	}
	return map[string]string{"status": "added", "user": name}, nil
}

// opReinstall reinstalls every compute node through PBS and reports what
// actually happened: Converged only when all jobs completed and every node
// came back up within the deadline, with NotUp naming the machines that
// did not — never an unconditional "cluster reinstalled".
func (c *Cluster) opReinstall(r *http.Request) (interface{}, *apiError) {
	waitSec, aerr := formInt(r, "wait", 120, 0)
	if aerr != nil {
		return nil, aerr
	}
	wait := time.Duration(waitSec) * time.Second
	// One deadline governs both the PBS drain and the come-back-up wait;
	// a drain that eats the whole budget leaves nothing for the boot poll.
	deadline := time.Now().Add(wait)
	jobErr := c.ReinstallCluster(wait)
	var timeoutErr *ReinstallTimeoutError
	if jobErr != nil && !errors.As(jobErr, &timeoutErr) {
		return nil, apiErrorf(http.StatusInternalServerError, "reinstall_failed", "%v", jobErr)
	}
	// The convergence poll ends early when the client hangs up or the
	// cluster shuts down, reporting whatever state the last pass saw; it
	// must never hold the handler (and with it Close) to the full deadline.
	var notUp []string
poll:
	for {
		notUp = notUp[:0]
		for _, n := range c.Nodes() {
			if n.State() != node.StateUp {
				name := n.Name()
				if name == "" {
					name = n.MAC()
				}
				notUp = append(notUp, name)
			}
		}
		if len(notUp) == 0 || !time.Now().Before(deadline) {
			break
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-r.Context().Done():
			break poll
		case <-c.ctx.Done():
			break poll
		}
	}
	if timeoutErr != nil {
		notUp = append(notUp, timeoutErr.StuckHosts()...)
	}
	notUp = dedupSorted(notUp)
	res := ReinstallResult{Converged: jobErr == nil && len(notUp) == 0, NotUp: notUp}
	if res.Converged {
		res.Status = "cluster reinstalled"
	} else {
		res.Status = fmt.Sprintf("reinstall incomplete: %d nodes not up", len(notUp))
	}
	return res, nil
}

func (c *Cluster) opConsistency(r *http.Request) (interface{}, *apiError) {
	ref, divergent, err := c.ConsistencyReport()
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "consistency_failed", "%v", err)
	}
	return map[string]interface{}{"reference": ref, "divergent": divergent}, nil
}

// opSupervisor exposes the remediation supervisor's state: whether one is
// running, its structured event log (reconstructed from the bounded
// lifecycle ring — Dropped counts events the ring has evicted), and the
// quarantine list.
func (c *Cluster) opSupervisor(r *http.Request) (interface{}, *apiError) {
	resp := struct {
		Running     bool              `json:"running"`
		Events      []SupervisorEvent `json:"events"`
		Dropped     uint64            `json:"dropped"`
		Quarantined []string          `json:"quarantined"`
	}{Quarantined: c.Quarantined(), Dropped: c.events.Evicted()}
	if s := c.Supervisor(); s != nil {
		resp.Running = true
		resp.Events = s.Events()
	}
	return resp, nil
}

// opDBStats exposes the database fast path's instrumentation: plan-cache
// traffic, index-vs-scan SELECT counts, per-index key counts, the WAL and
// snapshot counters (durable databases), what recovery found at startup,
// the report coalescer's write/skip counters, and the kickstart profile
// cache. The same figures are scrapeable on /metrics.
func (c *Cluster) opDBStats(r *http.Request) (interface{}, *apiError) {
	ksHits, ksMisses, ksInvalidations := c.KickstartCacheStats()
	resp := struct {
		DB        clusterdb.DBStats       `json:"db"`
		Recovery  *clusterdb.RecoveryInfo `json:"recovery,omitempty"`
		Reports   ReportStats             `json:"reports"`
		Kickstart struct {
			Hits          uint64 `json:"hits"`
			Misses        uint64 `json:"misses"`
			Invalidations uint64 `json:"invalidations"`
		} `json:"kickstart_cache"`
	}{DB: c.DB.Stats(), Recovery: c.recovery, Reports: c.ReportStats()}
	resp.Kickstart.Hits = ksHits
	resp.Kickstart.Misses = ksMisses
	resp.Kickstart.Invalidations = ksInvalidations
	return resp, nil
}

// opDistStats exposes the distribution layer end to end: the build report
// (what rocks-dist composed), the serving counters (manifest versus
// package-body traffic — a delta re-mirror advances the former and not the
// latter), and, when this frontend replicated a parent, the mirror pass's
// skipped/fetched/verified accounting.
func (c *Cluster) opDistStats(r *http.Request) (interface{}, *apiError) {
	return struct {
		Name   string             `json:"name"`
		Build  dist.BuildReport   `json:"build"`
		Serve  dist.ServeStats    `json:"serve"`
		Mirror *dist.MirrorReport `json:"mirror,omitempty"`
	}{Name: c.Dist.Name, Build: c.Dist.Report, Serve: c.distSrv.Stats(), Mirror: c.mirrorReport}, nil
}

// opEvents serves the lifecycle bus: the recent event ring, filtered by
// node (matches hostname or MAC and merges both identities into one
// timeline), type, phase, source, and since (sequence number); limit keeps
// the most recent N matches. The response carries the bus's high-water
// sequence and how many old events the bounded ring has dropped, so a
// client polling with since= can detect gaps.
func (c *Cluster) opEvents(r *http.Request) (interface{}, *apiError) {
	f, aerr := eventQuery(r)
	if aerr != nil {
		return nil, aerr
	}
	var events []lifecycle.Event
	if f.Node != "" {
		// NodeTimeline merges the MAC-keyed discovery/install prefix with
		// the hostname-keyed remainder of the node's life; the filter's
		// other fields then narrow that merged timeline.
		timeline := f
		timeline.Node = ""
		for _, e := range c.NodeTimeline(f.Node) {
			if timeline.Matches(e) {
				events = append(events, e)
			}
		}
		if f.Limit > 0 && len(events) > f.Limit {
			events = events[len(events)-f.Limit:]
		}
	} else {
		events = c.events.Recent(f)
	}
	if events == nil {
		events = []lifecycle.Event{}
	}
	return EventsResponse{Events: events, Seq: c.events.Seq(), Dropped: c.events.Evicted()}, nil
}

// opFacts is the install loop's reporting edge. POST ingests one
// first-boot agent's JSON report: the frontend persists it (WAL-covered),
// diffs it against the profile the database expects, and publishes
// drift-detected events the supervisor acts on; ?shard= marks a report a
// registered federated child is relaying upstream, stored with provenance
// and never re-diffed. GET serves the assembled inventory with per-node
// freshness and each node's current drift verdict.
func (c *Cluster) opFacts(r *http.Request) (interface{}, *apiError) {
	if r.Method != http.MethodPost {
		return c.FactsInventory(), nil
	}
	shard := r.URL.Query().Get("shard")
	if shard != "" {
		c.fed.mu.Lock()
		_, known := c.fed.children[shard]
		c.fed.mu.Unlock()
		if !known {
			return nil, apiErrorf(http.StatusNotFound, "unknown_shard",
				"shard %q is not registered; POST /v1/federation/register first", shard)
		}
	}
	var f hardware.Facts
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err := dec.Decode(&f); err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "bad_body", "decoding facts report: %v", err)
	}
	if f.MAC == "" {
		return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "facts report has no mac")
	}
	if err := c.ingestFacts(f, shard); err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, "facts_failed", "recording facts: %v", err)
	}
	return map[string]string{"status": "recorded", "mac": f.MAC}, nil
}

// auditEndpoint serves the mutation audit log, filtered by op, actor,
// outcome, since (sequence), and limit.
func (c *Cluster) auditEndpoint() endpoint {
	return endpoint{
		name: "audit",
		run: func(r *http.Request) (interface{}, *apiError) {
			since, aerr := formInt(r, "since", 0, 0)
			if aerr != nil {
				return nil, aerr
			}
			limit, aerr := formInt(r, "limit", 0, 0)
			if aerr != nil {
				return nil, aerr
			}
			entries := c.audit.recent(auditFilter{
				Op:       r.FormValue("op"),
				Actor:    r.FormValue("actor"),
				Outcome:  r.FormValue("outcome"),
				SinceSeq: uint64(since),
				Limit:    limit,
			})
			if entries == nil {
				entries = []AuditEntry{}
			}
			seq, evicted, errCount := c.audit.stats()
			return struct {
				Entries []AuditEntry `json:"entries"`
				Seq     uint64       `json:"seq"`
				Dropped uint64       `json:"dropped"`
				Errors  uint64       `json:"errors"`
			}{entries, seq, evicted, errCount}, nil
		},
	}
}

// formInt parses an optional integer parameter: absent means def, but bad
// input is a 400 — unparseable text must never silently become a default
// (since=abc), and a negative must never wrap into a huge unsigned value
// (since=-1).
func formInt(r *http.Request, key string, def, min int) (int, *apiError) {
	s := r.FormValue(key)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, apiErrorf(http.StatusBadRequest, "bad_parameter",
			"parameter %s: %q is not an integer", key, s)
	}
	if n < min {
		return 0, apiErrorf(http.StatusBadRequest, "bad_parameter",
			"parameter %s: %d is below the minimum %d", key, n, min)
	}
	return n, nil
}

// formOr returns the parameter's raw value, or def when absent — for audit
// details, which record what was asked even when it fails validation.
func formOr(r *http.Request, key, def string) string {
	if s := r.FormValue(key); s != "" {
		return s
	}
	return def
}

// dedupSorted sorts and deduplicates in place.
func dedupSorted(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	sort.Strings(in)
	out := in[:1]
	for _, s := range in[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}
