package installer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"rocks/internal/lifecycle"
	"rocks/internal/node"
	"rocks/internal/rpm"
)

// Source kinds: a peer relay (a completed node re-serving its verified
// tree) or the frontend itself (always the fallback of last resort).
const (
	SourcePeer     = "peer"
	SourceFrontend = "frontend"
)

// Source is one place an installer can fetch package bodies from. The
// frontend's /v1/relays registry hands out prioritized peer sources; the
// frontend's own distribution URL is appended as the final fallback.
type Source struct {
	URL  string `json:"url"`            // distribution root, no trailing slash
	Kind string `json:"kind"`           // SourcePeer or SourceFrontend
	Node string `json:"node,omitempty"` // serving node, for peers
}

// String renders the source for error messages and lifecycle events — the
// attribution that makes a demotion auditable in /v1/events.
func (s Source) String() string { return s.Kind + " " + s.URL }

// sourceSet is the installer's working view of its sources: peers in
// registry priority order, frontend last. A peer that serves a corrupt or
// failing response is demoted (dropped for the rest of the install); the
// frontend is never demoted.
type sourceSet struct {
	peers    []Source
	frontend Source
}

func newSourceSet(peers []Source, frontendURL string) *sourceSet {
	return &sourceSet{peers: peers, frontend: Source{URL: frontendURL, Kind: SourceFrontend}}
}

// pick returns the best available source: the first surviving peer, else
// the frontend.
func (ss *sourceSet) pick() Source {
	if len(ss.peers) > 0 {
		return ss.peers[0]
	}
	return ss.frontend
}

// demote drops a peer from the set. Demoting the frontend is a no-op.
func (ss *sourceSet) demote(src Source) {
	for i, p := range ss.peers {
		if p.URL == src.URL {
			ss.peers = append(ss.peers[:i:i], ss.peers[i+1:]...)
			return
		}
	}
}

// relayEnvelope is the /v1/relays response shape (the standard v1
// {"data": ...} envelope around the registry's source list).
type relayEnvelope struct {
	Data struct {
		Sources []Source `json:"sources"`
	} `json:"data"`
}

// fetchRelaySources asks the frontend's relay registry for prioritized peer
// sources. It is strictly best-effort: any error (registry absent, old
// frontend, torn response) means frontend-only distribution, never a failed
// install.
func fetchRelaySources(ctx context.Context, cfg Config) []Source {
	if cfg.RelayURL == "" {
		return nil
	}
	u := cfg.RelayURL
	if cfg.RelayMAC != "" {
		sep := "?"
		if strings.Contains(u, "?") {
			sep = "&"
		}
		u += sep + "mac=" + url.QueryEscape(cfg.RelayMAC)
	}
	req, err := http.NewRequestWithContext(ctx, "GET", u, nil)
	if err != nil {
		return nil
	}
	resp, err := cfg.HTTP.Do(req)
	if err != nil {
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	var env relayEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil
	}
	var peers []Source
	for _, s := range env.Data.Sources {
		if s.Kind == SourcePeer && s.URL != "" {
			peers = append(peers, s)
		}
	}
	return peers
}

// fetchPackageFrom downloads and decodes one package body from a specific
// source. Errors name the full package URL, so a failure is attributable to
// the peer or frontend that served it.
func fetchPackageFrom(ctx context.Context, cfg Config, src Source, m rpm.Metadata) (*rpm.Package, int64, error) {
	pkgURL := src.URL + "/RedHat/RPMS/" + url.PathEscape(m.Filename())
	req, err := http.NewRequestWithContext(ctx, "GET", pkgURL, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("installer: %w", err)
	}
	resp, err := cfg.HTTP.Do(req)
	if err != nil {
		return nil, 0, transient(fmt.Errorf("installer: fetching %s: %w", pkgURL, err))
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, transient(fmt.Errorf("installer: fetching %s: %w", pkgURL, err))
	}
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("installer: fetching %s: HTTP %s", pkgURL, resp.Status)
		if resp.StatusCode >= 500 {
			err = transient(err)
		}
		return nil, 0, err
	}
	pkg, err := rpm.Read(bytes.NewReader(body))
	if err != nil {
		// A decode failure on a served package is a torn or corrupted
		// transfer: the embedded digest caught it. The caller records the
		// corruption against this source and tries elsewhere.
		return nil, 0, transient(fmt.Errorf("installer: decoding %s: %w (%v)", pkgURL, errCorruptBody, err))
	}
	return pkg, int64(len(body)), nil
}

// verifyPackage checks a fetched body against the listing identity and the
// distribution manifest's digest. The manifest always comes from the
// frontend, so this is what makes peers trustless: a lying relay cannot
// forge a body that passes.
func verifyPackage(pkg *rpm.Package, m rpm.Metadata) error {
	if want := m.NVRA(); pkg.NVRA() != want {
		return transient(fmt.Errorf("installer: verifying %s: %w (body identifies as %s)", m.Filename(), errCorruptBody, pkg.NVRA()))
	}
	if m.Digest != "" && pkg.EnsureDigest() != m.Digest {
		return transient(fmt.Errorf("installer: verifying %s: %w (payload digest does not match the distribution manifest)", m.Filename(), errCorruptBody))
	}
	return nil
}

// fetchVerified fetches one package from the best available source,
// verifying the body end-to-end. A peer that errors or serves a corrupt
// body is demoted and the fetch moves to the next source immediately (no
// retry budget spent); only a frontend failure propagates to the caller's
// retry loop. Verified packages land in the node's relay store so this node
// can re-serve them after install-complete.
func fetchVerified(ctx context.Context, n *node.Node, cfg Config, screen io.Writer, srcs *sourceSet, best map[string]rpm.Metadata, name string) (*rpm.Package, error) {
	m, ok := best[name]
	if !ok {
		return nil, fmt.Errorf("installer: package %q not present in distribution", name)
	}
	for {
		src := srcs.pick()
		start := time.Now()
		pkg, nbytes, err := fetchPackageFrom(ctx, cfg, src, m)
		if err == nil {
			err = verifyPackage(pkg, m)
		}
		if err != nil {
			if errors.Is(err, errCorruptBody) {
				markCorrupt(cfg, n, screen, m.Filename(), src)
			}
			if src.Kind == SourcePeer && ctx.Err() == nil {
				cfg.Stats.demotePeer()
				srcs.demote(src)
				fmt.Fprintf(screen, "demoting relay %s: %v\n", src.URL, err)
				emit(cfg, n, lifecycle.EventRelayDemoted, fmt.Sprintf("%s demoted: %v", src, err))
				continue
			}
			return nil, err
		}
		cfg.Stats.fetched(src.Kind, nbytes, time.Since(start))
		if cfg.RelayStore != nil {
			cfg.RelayStore.Add(pkg)
		}
		return pkg, nil
	}
}
