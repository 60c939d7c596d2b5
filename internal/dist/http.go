package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rocks/internal/metrics"
	"rocks/internal/rpm"
)

// HTTP transport for distributions. The paper's nodes pull RPMs with
// Kickstart's HTTP method (§5), and rocks-dist replicates parent
// distributions with wget over HTTP (§6.2.3). The layout mirrors a Red Hat
// tree: packages live under RedHat/RPMS/, and RedHat/RPMS/ itself returns a
// plain-text listing (one filename per line) that the mirror client walks
// the way wget walks a directory index. RedHat/base/manifest adds the
// digest-bearing view of the same tree (NVRA, size, SHA-256, provenance),
// which is what makes delta mirroring and end-to-end verification possible.

// ServeStats counts what a distribution server handed out; /v1/diststats
// exposes them. A re-mirror of an unchanged tree shows ManifestRequests
// advancing while PackageRequests stands still — the delta pass at work.
type ServeStats struct {
	ListingRequests  uint64 `json:"listing_requests"`
	ManifestRequests uint64 `json:"manifest_requests"`
	HdlistRequests   uint64 `json:"hdlist_requests"`
	PackageRequests  uint64 `json:"package_requests"`
	PackageBytes     int64  `json:"package_bytes"`
	NotFound         uint64 `json:"not_found"`
}

// Server serves a distribution read-only over HTTP and counts traffic:
//
//	GET {prefix}/RedHat/RPMS/             → newline-separated package listing
//	GET {prefix}/RedHat/RPMS/<file>.rpm   → the package in its on-disk format
//	GET {prefix}/RedHat/base/hdlist       → "filename size" per line
//	GET {prefix}/RedHat/base/manifest     → "NVRA size digest source" per line
//	GET {prefix}/profiles/graph.dot       → the framework's graph (diagnostic)
//
// Replicating an installation web server is safe precisely because this is
// strictly read-only (§6.3 footnote) — and because packages carry manifest
// digests, *any* verified repository can serve the same endpoints: the relay
// role (NewRepoServer) is a completed node re-serving its install tree to
// peers.
type Server struct {
	// repo resolves the served repository at request time. A server built
	// from a Distribution reads through it, so rebinding the distribution
	// in place (the §3.3 upgrade flow) is immediately visible; a relay
	// server (NewRepoServer) serves one fixed repository.
	repo func() *rpm.Repository
	mux  *http.ServeMux

	// The formatted bodies of the three index endpoints, each rebuilt
	// only when the served repository or its generation changes.
	listingView, hdlistView, manifestView servedView

	listing  atomic.Uint64
	manifest atomic.Uint64
	hdlist   atomic.Uint64
	packages atomic.Uint64
	bytes    atomic.Int64
	notFound atomic.Uint64
}

// NewServer builds the read-only HTTP server for a distribution, including
// the framework graph diagnostic endpoint.
func NewServer(d *Distribution) *Server {
	s := newServer(func() *rpm.Repository { return d.Repo })
	s.mux.HandleFunc("/profiles/graph.dot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		io.WriteString(w, d.Framework.DOT())
	})
	return s
}

// NewRepoServer builds the read-only HTTP server for a bare repository: the
// relay server role. A node that finished installing re-serves its
// digest-verified package tree at the same RPMS/manifest endpoints the
// frontend uses, so installers can fetch from it interchangeably (peers are
// trustless — every body is verified against the frontend's manifest).
func NewRepoServer(repo *rpm.Repository) *Server {
	return newServer(func() *rpm.Repository { return repo })
}

func newServer(repo func() *rpm.Repository) *Server {
	s := &Server{
		repo:         repo,
		mux:          http.NewServeMux(),
		listingView:  servedView{build: formatListing},
		hdlistView:   servedView{build: formatHdlist},
		manifestView: servedView{build: func(r *rpm.Repository) string { return FormatManifest(Manifest(r)) }},
	}
	s.mux.HandleFunc("/RedHat/RPMS/", s.serveRPMS)
	s.mux.HandleFunc("/RedHat/base/hdlist", s.serveHdlist)
	s.mux.HandleFunc("/RedHat/base/manifest", s.serveManifest)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// RegisterMetrics exposes the serving counters on the cluster's metrics
// registry — the /v1/diststats "serve" block, scrapeable. A delta
// re-mirror shows rocks_dist_manifest_requests_total advancing while
// rocks_dist_package_requests_total stands still.
func (s *Server) RegisterMetrics(r *metrics.Registry) {
	counter := func(name, help string, v *atomic.Uint64) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("rocks_dist_listing_requests_total", "RedHat/RPMS/ directory listings served.", &s.listing)
	counter("rocks_dist_manifest_requests_total", "Digest manifests served.", &s.manifest)
	counter("rocks_dist_hdlist_requests_total", "hdlist files served.", &s.hdlist)
	counter("rocks_dist_package_requests_total", "Package bodies served.", &s.packages)
	counter("rocks_dist_not_found_total", "Requests for packages the tree does not hold.", &s.notFound)
	r.CounterFunc("rocks_dist_package_bytes_total", "Package body bytes served.",
		func() float64 { return float64(s.bytes.Load()) })
	r.GaugeFunc("rocks_dist_packages", "Packages in the served distribution.",
		func() float64 { return float64(s.repo().Len()) })
}

// Stats returns a snapshot of the traffic counters.
func (s *Server) Stats() ServeStats {
	return ServeStats{
		ListingRequests:  s.listing.Load(),
		ManifestRequests: s.manifest.Load(),
		HdlistRequests:   s.hdlist.Load(),
		PackageRequests:  s.packages.Load(),
		PackageBytes:     s.bytes.Load(),
		NotFound:         s.notFound.Load(),
	}
}

// servedView caches one body derived from the served repository. The cache
// key is the repository itself and its generation: an Add or Remove, or a
// Distribution rebound to another repository, makes the next request
// rebuild it. A view is published whole, so concurrent readers see either
// the old body or the new one, and one rebuild at a time runs, so a request
// storm after a change builds the body once.
type servedView struct {
	build func(*rpm.Repository) string
	mu    sync.Mutex // serializes rebuilds
	cur   atomic.Pointer[viewBody]
}

type viewBody struct {
	repo *rpm.Repository
	gen  uint64
	body string
}

// get returns the view of repo, rebuilding it if repo changed since it was
// last built. The generation is read before the build, so a change racing
// the build can only make the stored body newer than its key, never older.
func (v *servedView) get(repo *rpm.Repository) string {
	gen := repo.Generation()
	if b := v.cur.Load(); b != nil && b.repo == repo && b.gen == gen {
		return b.body
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if b := v.cur.Load(); b != nil && b.repo == repo && b.gen == gen {
		return b.body // built while this request waited
	}
	b := &viewBody{repo: repo, gen: gen, body: v.build(repo)}
	v.cur.Store(b)
	return b.body
}

// formatListing renders the RPMS/ directory listing: one package filename
// per line, sorted. Each name is escaped so the listing stays one token per
// line even for filenames carrying spaces or reserved URL characters, and
// so the client can use entries verbatim as URL path segments.
func formatListing(repo *rpm.Repository) string {
	var names []string
	for _, p := range repo.All() {
		names = append(names, url.PathEscape(p.Filename()))
	}
	sort.Strings(names)
	return strings.Join(names, "\n") + "\n"
}

// formatHdlist renders the hdlist, which gives installers package sizes up
// front (progress accounting) without fetching payloads: "filename size"
// per line, sorted.
func formatHdlist(repo *rpm.Repository) string {
	var lines []string
	for _, p := range repo.All() {
		lines = append(lines, fmt.Sprintf("%s %d", p.Filename(), p.Size))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func (s *Server) serveRPMS(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/RedHat/RPMS/")
	if rest == "" {
		s.listing.Add(1)
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, s.listingView.get(s.repo()))
		return
	}
	meta, err := rpm.ParseFilename(rest)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p := s.repo().Get(meta.NVRA())
	if p == nil {
		s.notFound.Add(1)
		http.NotFound(w, r)
		return
	}
	s.packages.Add(1)
	w.Header().Set("Content-Type", "application/x-rpm")
	n, err := p.WriteTo(w)
	s.bytes.Add(n)
	if err != nil {
		// Connection-level failure; nothing recoverable server-side.
		return
	}
}

func (s *Server) serveHdlist(w http.ResponseWriter, r *http.Request) {
	s.hdlist.Add(1)
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, s.hdlistView.get(s.repo()))
}

func (s *Server) serveManifest(w http.ResponseWriter, r *http.Request) {
	s.manifest.Add(1)
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, s.manifestView.get(s.repo()))
}

// Handler serves a distribution read-only over HTTP. Callers that want the
// traffic counters use NewServer directly; Handler remains for the common
// fire-and-forget case.
func Handler(d *Distribution) http.Handler { return NewServer(d) }

// mirrorDefaultClient bounds every mirror fetch the way the installer's
// default client does (60 s): falling back to http.DefaultClient would let
// one hung package fetch wedge a replication pass forever.
var mirrorDefaultClient = &http.Client{Timeout: 60 * time.Second}

// MirrorOptions tunes a replication pass. The zero value is a sensible
// production default.
type MirrorOptions struct {
	// Client performs the fetches; nil means a shared 60-second-timeout
	// client (never the timeout-less http.DefaultClient).
	Client *http.Client
	// Workers bounds concurrent package fetches; <= 0 means 8 — enough to
	// keep a campus→department link busy without stampeding the parent.
	Workers int
	// Retries is the attempt budget per file (including the first); <= 0
	// means 3. Only transport errors, 5xx responses, and digest-mismatched
	// bodies are retried.
	Retries int
	// RetryBackoff is the wait before the second attempt, doubling per
	// attempt; <= 0 means 100ms.
	RetryBackoff time.Duration
	// Baseline, when set, turns the pass into a delta: packages whose
	// manifest digest matches a baseline package (a previous mirror of the
	// same parent, or a tree loaded with ReadTree) are reused by reference
	// and their bodies are never fetched — the paper's "pay only for what
	// changed" update pass. Requires the parent to serve a digest manifest;
	// without one the pass silently falls back to a full fetch.
	Baseline *rpm.Repository
	// Context, when set, cancels the pass: in-flight fetches abort and
	// retry backoffs cut short, so the pass returns within one backoff
	// step of cancellation instead of grinding through its budget against
	// a parent that will never answer. Nil means Background.
	Context context.Context
}

// MirrorReport accounts for one replication pass: what the parent
// advertised, what the baseline already had, what was actually transferred,
// and how many bodies were digest-verified (and how many arrived corrupt
// and were retried).
type MirrorReport struct {
	// Listed counts packages the parent advertises.
	Listed int `json:"listed"`
	// Skipped counts packages reused from the baseline because their digest
	// already matched — no body fetched.
	Skipped int `json:"skipped"`
	// Fetched counts package bodies transferred, and FetchedBytes their
	// total serialized size.
	Fetched      int   `json:"fetched"`
	FetchedBytes int64 `json:"fetched_bytes"`
	// Verified counts fetched bodies checked against a manifest digest.
	Verified int `json:"verified"`
	// CorruptBodies counts bodies that arrived failing their digest check
	// and were discarded; each costs one retry from the per-file budget.
	CorruptBodies int `json:"corrupt_bodies"`
	// ManifestUsed reports whether the parent served a digest manifest;
	// false means a legacy listing-only parent (no delta, no verification).
	ManifestUsed bool `json:"manifest_used"`
	// Duration is how long the pass took.
	Duration time.Duration `json:"duration"`
}

// Summary renders the one-line report rocks-dist prints after a pass.
func (r MirrorReport) Summary() string {
	s := fmt.Sprintf("rocks-dist: mirrored %d packages: %d unchanged (skipped), %d fetched (%d bytes), %d verified",
		r.Listed, r.Skipped, r.Fetched, r.FetchedBytes, r.Verified)
	if r.CorruptBodies > 0 {
		s += fmt.Sprintf(", %d corrupt bodies retried", r.CorruptBodies)
	}
	if !r.ManifestUsed {
		s += " (parent serves no manifest: full fetch, unverified)"
	}
	return s + fmt.Sprintf(", in %v", r.Duration)
}

// Mirror replicates a served distribution's packages into a local
// repository — the wget step of Figure 6 — with default options. baseURL
// addresses the Handler root (e.g. "http://10.1.1.1/dist"). The returned
// repository's packages carry the mirror's name as provenance.
func Mirror(client *http.Client, baseURL, name string) (*rpm.Repository, error) {
	return MirrorWith(baseURL, name, MirrorOptions{Client: client})
}

// MirrorWith replicates a served distribution with explicit options,
// discarding the traffic report. See MirrorReportWith.
func MirrorWith(baseURL, name string, opts MirrorOptions) (*rpm.Repository, error) {
	repo, _, err := MirrorReportWith(baseURL, name, opts)
	return repo, err
}

// mirrorItem is one package body the worker pool must fetch.
type mirrorItem struct {
	escaped string // listing entry / escaped URL path segment
	file    string // decoded filename, for errors and reports
	digest  string // expected payload digest ("" = parent has no manifest)
}

// MirrorReportWith replicates a served distribution with explicit options.
// Packages are fetched by a bounded worker pool with per-file retries, so
// replication scales with package count (§6.2.3) instead of serializing on
// round trips, and a single bad file fails the pass with an error naming
// the file. When the parent serves a digest manifest every fetched body is
// verified against it — a mismatch counts as transient and is retried, then
// fails naming the file — and a Baseline turns the pass into a delta that
// fetches only packages whose digest is missing or changed.
func MirrorReportWith(baseURL, name string, opts MirrorOptions) (*rpm.Repository, MirrorReport, error) {
	start := time.Now()
	var report MirrorReport
	client := opts.Client
	if client == nil {
		client = mirrorDefaultClient
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 8
	}
	attempts := opts.Retries
	if attempts <= 0 {
		attempts = 3
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	baseURL = strings.TrimSuffix(baseURL, "/")
	listURL := baseURL + "/RedHat/RPMS/"

	// Prefer the digest manifest; fall back to the plain listing for
	// pre-manifest parents (full fetch, no verification, no delta).
	var entries []ManifestEntry
	if body, err := fetchWithRetry(ctx, client, baseURL+"/RedHat/base/manifest", attempts, backoff); err == nil {
		if parsed, perr := ParseManifest(body); perr == nil {
			entries, report.ManifestUsed = parsed, true
		}
	}

	repo := rpm.NewRepository(name)
	var items []mirrorItem
	if report.ManifestUsed {
		report.Listed = len(entries)
		for _, e := range entries {
			file := e.NVRA + ".rpm"
			if e.Digest != "" && opts.Baseline != nil {
				if base := opts.Baseline.Get(e.NVRA); base != nil && base.EnsureDigest() == e.Digest {
					// Unchanged content: inherit by reference (a shallow copy
					// so restamping provenance cannot mutate the baseline).
					reused := *base
					reused.Source = name
					repo.Add(&reused)
					report.Skipped++
					continue
				}
			}
			items = append(items, mirrorItem{escaped: url.PathEscape(file), file: file, digest: e.Digest})
		}
	} else {
		listing, err := fetchWithRetry(ctx, client, listURL, attempts, backoff)
		if err != nil {
			return nil, report, fmt.Errorf("dist: mirroring %s: %w", listURL, err)
		}
		for _, entry := range strings.Fields(string(listing)) {
			file, err := url.PathUnescape(entry)
			if err != nil {
				file = entry // tolerate a raw legacy listing
			}
			items = append(items, mirrorItem{escaped: entry, file: file})
		}
		report.Listed = len(items) + report.Skipped
	}

	// Fetch into a listing-indexed slice so the result is deterministic
	// regardless of worker interleaving; the first failing file (in listing
	// order) wins the error.
	pkgs := make([]*rpm.Package, len(items))
	errs := make([]error, len(items))
	var failed atomic.Bool
	var next atomic.Int64
	var fetchedBytes atomic.Int64
	var corrupt atomic.Int64
	if workers > len(items) {
		workers = len(items)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || failed.Load() {
					return
				}
				it := items[i]
				p, err := fetchPackage(ctx, client, listURL+it.escaped, it, attempts, backoff, &fetchedBytes, &corrupt)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				p.Source = name
				pkgs[i] = p
			}
		}()
	}
	wg.Wait()
	report.CorruptBodies = int(corrupt.Load())
	report.FetchedBytes = fetchedBytes.Load()
	for _, e := range errs {
		if e != nil {
			return nil, report, e
		}
	}
	// No error recorded means every index was claimed and filled.
	for i, p := range pkgs {
		repo.Add(p)
		report.Fetched++
		if items[i].digest != "" {
			report.Verified++
		}
	}
	report.Duration = time.Since(start)
	return repo, report, nil
}

// fetchPackage downloads and decodes one RPM with bounded retries, checking
// its payload digest against the manifest when one is known. Errors always
// name the file, so an administrator knows exactly which package stalled a
// replication pass — or which one keeps arriving corrupt.
func fetchPackage(ctx context.Context, client *http.Client, pkgURL string, it mirrorItem, attempts int, backoff time.Duration, fetchedBytes, corrupt *atomic.Int64) (*rpm.Package, error) {
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if !sleepCtx(ctx, backoff) {
				break
			}
			backoff *= 2
		}
		resp, err := getCtx(ctx, client, pkgURL)
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("dist: fetching %s: %w", it.file, ctx.Err())
			}
			lastErr = fmt.Errorf("dist: fetching %s: %w", it.file, err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			lastErr = fmt.Errorf("dist: fetching %s: HTTP %s", it.file, resp.Status)
			if resp.StatusCode < 500 {
				return nil, lastErr // 4xx will not heal on retry
			}
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("dist: fetching %s: %w", it.file, err)
			continue
		}
		p, err := rpm.Read(bytes.NewReader(body))
		if err != nil {
			// A decode failure (torn tar, embedded-digest mismatch) is a
			// corrupted transfer: transient, retried.
			corrupt.Add(1)
			lastErr = fmt.Errorf("dist: decoding %s: %w", it.file, err)
			continue
		}
		if p.Filename() != it.file {
			// The body decoded but identifies as a different package — a
			// substituted file, or a bit flip in the metadata region that
			// the payload digest cannot see.
			corrupt.Add(1)
			lastErr = fmt.Errorf("dist: verifying %s: fetched body identifies as %s", it.file, p.Filename())
			continue
		}
		if it.digest != "" && p.EnsureDigest() != it.digest {
			// The body is a self-consistent package but not the advertised
			// one — a flipped bit that survived decoding, or a substituted
			// file. The manifest is the source of truth.
			corrupt.Add(1)
			lastErr = fmt.Errorf("dist: verifying %s: payload digest does not match the parent manifest", it.file)
			continue
		}
		fetchedBytes.Add(int64(len(body)))
		return p, nil
	}
	return nil, fmt.Errorf("dist: giving up after %d attempts: %w", attempts, lastErr)
}

// fetchWithRetry reads one URL's body with the same retry policy as
// package fetches (the listing itself can hit a loaded parent).
func fetchWithRetry(ctx context.Context, client *http.Client, url string, attempts int, backoff time.Duration) ([]byte, error) {
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if !sleepCtx(ctx, backoff) {
				break
			}
			backoff *= 2
		}
		resp, err := getCtx(ctx, client, url)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			lastErr = fmt.Errorf("HTTP %s", resp.Status)
			if resp.StatusCode < 500 {
				return nil, lastErr
			}
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		return data, nil
	}
	return nil, lastErr
}

// getCtx is client.Get bound to the pass's context, so cancellation aborts
// an in-flight request instead of waiting out the client timeout.
func getCtx(ctx context.Context, client *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return client.Do(req)
}

// sleepCtx waits out a retry backoff unless the context ends first; it
// reports whether the retry should proceed. This is what bounds an aborted
// pass to one backoff step: cancellation cuts the sleep short instead of
// letting the doubling schedule run to completion.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}
