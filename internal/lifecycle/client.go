package lifecycle

// The client side of /v1/events: the CLI tools (shoot-node,
// insert-ethers) fetch a node's merged timeline from a running frontend and
// render it for a terminal, so "what has this machine been through?" is one
// flag away from any shell.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// TimelineResponse is the event-listing payload /v1/events returns inside
// the data envelope.
type TimelineResponse struct {
	Events  []Event `json:"events"`
	Seq     uint64  `json:"seq"`
	Dropped uint64  `json:"dropped"`
}

// FetchTimeline queries a frontend's /v1/events for one node's timeline
// (hostname or MAC; the server merges both identities). server is the
// frontend base URL, e.g. http://127.0.0.1:8070.
func FetchTimeline(server, node string) (*TimelineResponse, error) {
	u := strings.TrimSuffix(server, "/") + "/v1/events?" +
		url.Values{"node": {node}}.Encode()
	resp, err := http.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var env struct {
		Data  *TimelineResponse `json:"data"`
		Error *struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("lifecycle: bad /v1/events response (%s): %w", resp.Status, err)
	}
	if env.Error != nil {
		return nil, fmt.Errorf("lifecycle: %s: %s", resp.Status, env.Error.Message)
	}
	if env.Data == nil {
		return nil, fmt.Errorf("lifecycle: empty /v1/events response (%s)", resp.Status)
	}
	return env.Data, nil
}

// FormatTimeline renders a timeline one event per line, aligned for a
// terminal, with wall-clock times.
func FormatTimeline(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "%s  %-9s %-16s %-13s", e.Time.Format("15:04:05.000"),
			e.Phase, e.Type, e.Source)
		if e.Attempt > 0 {
			fmt.Fprintf(&b, " attempt=%d", e.Attempt)
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, " %s", e.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
