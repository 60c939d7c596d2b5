package core

import (
	"encoding/json"
	"net/http"
)

// The /v1 surface wraps every endpoint in one discipline: a JSON envelope
// ({"data": ...} on success, {"error": {code, message, status}} on
// failure), POST-only mutations with a 405 + Allow header otherwise, and
// an audit record for every mutating call.

// allowedMethods renders the endpoint's Allow header.
func (ep endpoint) allowedMethods() string {
	switch {
	case ep.audit == "":
		return "GET"
	case ep.mutates != nil:
		// Conditionally mutating (sql): reads over GET, exec over POST.
		return "GET, POST"
	default:
		return "POST"
	}
}

// methodCheck enforces the POST-only-mutations rule.
func (ep endpoint) methodCheck(r *http.Request) *apiError {
	switch {
	case ep.audit == "":
		if r.Method != http.MethodGet {
			return apiErrorf(http.StatusMethodNotAllowed, "method_not_allowed",
				"%s is read-only; use GET", r.URL.Path)
		}
	case ep.mutates != nil:
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			return apiErrorf(http.StatusMethodNotAllowed, "method_not_allowed",
				"use GET to read or POST to mutate %s", r.URL.Path)
		}
		if ep.mutates(r) && r.Method != http.MethodPost {
			return apiErrorf(http.StatusMethodNotAllowed, "method_not_allowed",
				"mutating %s requires POST", r.URL.Path)
		}
	default:
		if r.Method != http.MethodPost {
			return apiErrorf(http.StatusMethodNotAllowed, "method_not_allowed",
				"%s mutates the cluster; use POST", r.URL.Path)
		}
	}
	return nil
}

// v1Handler serves one endpoint on the versioned surface.
func (c *Cluster) v1Handler(ep endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.apiReqs.With(ep.name).Inc()
		if aerr := ep.methodCheck(r); aerr != nil {
			w.Header().Set("Allow", ep.allowedMethods())
			writeV1Error(w, aerr)
			return
		}
		payload, aerr := ep.run(r)
		if aerr == nil && ep.fanout != nil {
			payload, aerr = ep.fanout(r, payload)
		}
		c.auditOp(ep, r, aerr)
		if aerr != nil {
			writeV1Error(w, aerr)
			return
		}
		writeV1Data(w, payload)
	}
}

// auditOp records a mutating call's outcome; reads and non-mutating sql
// queries pass through unrecorded.
func (c *Cluster) auditOp(ep endpoint, r *http.Request, aerr *apiError) {
	if ep.audit == "" || (ep.mutates != nil && !ep.mutates(r)) {
		return
	}
	e := AuditEntry{
		Actor:   auditActor(r),
		Remote:  r.RemoteAddr,
		Op:      ep.audit,
		Outcome: "ok",
		Status:  http.StatusOK,
	}
	if ep.detail != nil {
		e.Detail = ep.detail(r)
	}
	if aerr != nil {
		e.Outcome = "error"
		e.Error = aerr.Message
		e.Status = aerr.Status
	}
	c.audit.record(e)
}

// auditActor identifies the caller: the X-Rocks-Actor header when the
// client sends one (the cmd tools send $USER), "anonymous" otherwise.
func auditActor(r *http.Request) string {
	if a := r.Header.Get("X-Rocks-Actor"); a != "" {
		return a
	}
	return "anonymous"
}

func writeV1Data(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Data interface{} `json:"data"`
	}{v})
}

func writeV1Error(w http.ResponseWriter, e *apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(struct {
		Error *apiError `json:"error"`
	}{e})
}
