package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"retrograde/internal/awari"
)

// The HTTP surface shares the listener with the binary protocol: the
// first bytes of each connection are sniffed (see sniff.go), and HTTP
// method prefixes are handed to an embedded net/http server through a
// channel-backed listener — all of it inside Frontend. The query handlers
// here go through Frontend.Do, the same entry as binary batches, so
// admission, shedding and the counters apply uniformly.

func (s *Server) httpMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/value", s.handleBoard(KindBestMove))
	mux.HandleFunc("/line", s.handleBoard(KindLine))
	mux.HandleFunc("/probe", s.handleProbe)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/shards", s.handleShards)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// submitHTTP admits and executes a single query for an HTTP handler,
// translating queue pressure into 503s.
func (s *Server) submitHTTP(w http.ResponseWriter, q Query) (Answer, bool) {
	answers, err := s.front.Do([]Query{q})
	if err != nil {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
		return Answer{}, false
	}
	a := answers[0]
	if a.Err != "" {
		http.Error(w, a.Err, http.StatusNotFound)
		return Answer{}, false
	}
	return a, true
}

// WriteJSON sends v as an indented JSON response — the one encoder
// behind raserve's and rabroker's JSON endpoints.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleBoard serves /value and /line: board=<12 comma-separated pits>,
// and for lines plies=<n>.
func (s *Server) handleBoard(kind byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		board, err := awari.ParseBoard(r.URL.Query().Get("board"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		q := Query{Kind: kind, Board: board}
		if kind == KindLine {
			q.MaxPlies = 16
			if p := r.URL.Query().Get("plies"); p != "" {
				n, err := strconv.Atoi(p)
				if err != nil || n < 0 || n > MaxLinePlies {
					http.Error(w, fmt.Sprintf("plies must be in [0, %d]", MaxLinePlies), http.StatusBadRequest)
					return
				}
				q.MaxPlies = n
			}
		}
		a, ok := s.submitHTTP(w, q)
		if !ok {
			return
		}
		resp := map[string]any{
			"board":  board.String(),
			"stones": board.Stones(),
			"value":  a.Value,
		}
		if a.Pit >= 0 {
			resp["bestPit"] = a.Pit
		}
		if kind == KindLine {
			line := make([]int, len(a.Line))
			for i, p := range a.Line {
				line[i] = int(p)
			}
			resp["line"] = line
		}
		WriteJSON(w, resp)
	}
}

// handleProbe serves /probe?shard=<name>&index=<n>.
func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	shard := r.URL.Query().Get("shard")
	if shard == "" {
		http.Error(w, "shard is required", http.StatusBadRequest)
		return
	}
	idx, err := strconv.ParseUint(r.URL.Query().Get("index"), 10, 64)
	if err != nil {
		http.Error(w, "index must be a non-negative integer", http.StatusBadRequest)
		return
	}
	a, ok := s.submitHTTP(w, Query{Kind: KindProbe, Shard: shard, Index: idx})
	if !ok {
		return
	}
	WriteJSON(w, map[string]any{"shard": shard, "index": idx, "value": a.Value})
}

// handleStats renders the stats tables as text.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, t := range s.StatsTables() {
		t.Render(w)
	}
}

// handleMetrics serves the request-path counters as JSON. The shape is
// shared with rabroker's /metrics: a "server" block of front-side
// counters and a "clients" list of outbound resilience counters
// (retries, reconnects, unknown replies per server.ClientStats) — empty
// here, one entry per backend on a broker. A server adds "shards", the
// per-shard counters of /shards, so one scrape carries the shard cache
// and, for compressed shards, their point lookups next to the latencies
// they explain.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, map[string]any{
		"server":  s.Metrics(),
		"clients": []ClientStats{},
		"shards":  s.cache.Snapshot(),
	})
}

// handleShards lists discovered shards as JSON.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, s.cache.Snapshot())
}
