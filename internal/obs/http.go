package obs

import (
	"encoding/json"
	"net/http"
)

// VarsHandler serves the registry as indented JSON — the expvar-style
// /debug/vars endpoint mounted by cmd/policyserver behind its -debug flag.
func VarsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
}
