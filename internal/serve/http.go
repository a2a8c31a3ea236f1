package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"diam2/internal/harness"
	"diam2/internal/telemetry"
)

// Register mounts the query endpoints on the registry's mux (they
// appear on its "/" index automatically):
//
//	GET/POST /query        one query (params or JSON body)
//	POST     /query/batch  many queries / a whole grid
//	GET      /ticket/<id>  poll one escalation
//	GET      /tickets      list escalations
func (s *Server) Register(reg *telemetry.Registry) {
	reg.HandleFunc("/query", s.handleQuery)
	reg.HandleFunc("/query/batch", s.handleBatch)
	reg.HandleFunc("/ticket/", s.handleTicket)
	reg.HandleFunc("/tickets", s.handleTickets)
}

// admit takes an admission slot, answering 429 + Retry-After when the
// server is saturated. The returned release func is nil on rejection.
func (s *Server) admit(w http.ResponseWriter) func() {
	select {
	case s.queue <- struct{}{}:
		return func() { <-s.queue }
	default:
		w.Header().Set("Retry-After", "1")
		http.Error(w, "query queue full; retry shortly", http.StatusTooManyRequests)
		return nil
	}
}

// resolveError maps a Resolve failure to its HTTP status.
func resolveError(w http.ResponseWriter, err error) {
	var bad *BadQueryError
	if errors.As(err, &bad) {
		http.Error(w, bad.Error(), http.StatusBadRequest)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// maxBody bounds a request body before it is decoded: maxBatch caps
// only the expanded query count, and 1 MiB covers an explicit list of
// that many queries.
const maxBody = 1 << 20

// decodeBody decodes a JSON request body of at most maxBody bytes.
func decodeBody(w http.ResponseWriter, req *http.Request, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBody)).Decode(v); err != nil {
		return badQuery("bad request body: %v", err)
	}
	return nil
}

// parseQuery reads one query from URL parameters (GET) or a JSON body
// (POST).
func parseQuery(w http.ResponseWriter, req *http.Request) (Query, error) {
	if req.Method == http.MethodPost {
		var q Query
		err := decodeBody(w, req, &q)
		return q, err
	}
	v := req.URL.Query()
	q := Query{
		Topo:    v.Get("topo"),
		Routing: v.Get("routing"),
		Pattern: v.Get("pattern"),
	}
	if lv := v.Get("load"); lv != "" {
		var err error
		if q.Load, err = strconv.ParseFloat(lv, 64); err != nil {
			return Query{}, badQuery("load %q is not a number", lv)
		}
	}
	return q, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodPost {
		http.Error(w, "GET with ?topo=&routing=&pattern=&load= or POST a JSON query", http.StatusMethodNotAllowed)
		return
	}
	release := s.admit(w)
	if release == nil {
		return
	}
	defer release()
	q, err := parseQuery(w, req)
	if err != nil {
		resolveError(w, err)
		return
	}
	ans, err := s.Resolve(req.Context(), q)
	if err != nil {
		resolveError(w, err)
		return
	}
	telemetry.WriteJSON(w, ans)
}

// BatchRequest asks for many queries at once: an explicit list, a
// grid cross-product, or both. Empty grid axes default to everything
// the server serves (all presets, MIN+INR, UNI+WC) and a
// defaultGridLoads-load ladder.
type BatchRequest struct {
	Queries []Query    `json:"queries,omitempty"`
	Grid    *BatchGrid `json:"grid,omitempty"`
}

// BatchGrid is the cross-product half of a batch request.
type BatchGrid struct {
	Topos    []string  `json:"topos,omitempty"`
	Routings []string  `json:"routings,omitempty"`
	Patterns []string  `json:"patterns,omitempty"`
	Loads    []float64 `json:"loads,omitempty"`
}

// BatchResponse answers a batch request, answers in request order
// (grid expansion: topos, routings, patterns outermost to loads
// innermost, after any explicit queries).
type BatchResponse struct {
	Count     int      `json:"count"`
	Answers   []Answer `json:"answers"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// defaultGridLoads is the size of the ScreenGridLoads ladder a batch
// grid with no loads covers.
const defaultGridLoads = 30

// maxBatch bounds one batch request; a 90-load grid over the quick
// presets (3 presets x 2 routings x 2 patterns x 90 loads = 1080) fits
// comfortably.
const maxBatch = 8192

// expand flattens a batch request into its query list. The count is
// checked against maxBatch before any query is built: a body of a few
// hundred bytes can name a grid of billions.
func (s *Server) expand(br BatchRequest) ([]Query, error) {
	n := len(br.Queries)
	var g BatchGrid
	if br.Grid != nil {
		g = *br.Grid
		if len(g.Topos) == 0 {
			for _, p := range s.cfg.Presets {
				g.Topos = append(g.Topos, p.Name)
			}
		}
		if len(g.Routings) == 0 {
			g.Routings = []string{"MIN", "INR"}
		}
		if len(g.Patterns) == 0 {
			g.Patterns = []string{"UNI", "WC"}
		}
		if len(g.Loads) == 0 {
			g.Loads = harness.ScreenGridLoads(defaultGridLoads)
		}
		n = capCount(n, len(g.Topos), len(g.Routings), len(g.Patterns), len(g.Loads))
	}
	if n == 0 {
		return nil, badQuery("empty batch: give queries and/or a grid")
	}
	if n > maxBatch {
		return nil, badQuery("batch exceeds the %d-query cap", maxBatch)
	}
	queries := append(make([]Query, 0, n), br.Queries...)
	for _, topo := range g.Topos {
		for _, rt := range g.Routings {
			for _, pat := range g.Patterns {
				for _, load := range g.Loads {
					queries = append(queries, Query{Topo: topo, Routing: rt, Pattern: pat, Load: load})
				}
			}
		}
	}
	return queries, nil
}

// capCount returns explicit plus the product of the grid axes,
// saturating at maxBatch+1. Every factor is capped first, so no
// intermediate exceeds (maxBatch+1)^2 and nothing overflows.
func capCount(explicit int, axes ...int) int {
	prod := 1
	for _, a := range axes {
		prod = min(prod*min(a, maxBatch+1), maxBatch+1)
	}
	return min(explicit+prod, maxBatch+1)
}

func (s *Server) handleBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST a JSON {\"queries\": [...], \"grid\": {...}} body", http.StatusMethodNotAllowed)
		return
	}
	release := s.admit(w)
	if release == nil {
		return
	}
	defer release()
	var br BatchRequest
	if err := decodeBody(w, req, &br); err != nil {
		resolveError(w, err)
		return
	}
	queries, err := s.expand(br)
	if err != nil {
		resolveError(w, err)
		return
	}
	start := s.now()
	resp := BatchResponse{Count: len(queries), Answers: make([]Answer, 0, len(queries))}
	for _, q := range queries {
		ans, err := s.Resolve(req.Context(), q)
		if err != nil {
			resolveError(w, fmt.Errorf("query %+v: %w", q, err))
			return
		}
		resp.Answers = append(resp.Answers, ans)
	}
	resp.ElapsedMS = float64(s.now().Sub(start)) / float64(time.Millisecond)
	telemetry.WriteJSON(w, resp)
}

func (s *Server) handleTicket(w http.ResponseWriter, req *http.Request) {
	id := strings.TrimPrefix(req.URL.Path, "/ticket/")
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "GET /ticket/<id>", http.StatusBadRequest)
		return
	}
	t, ok := s.Ticket(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no ticket %q", id), http.StatusNotFound)
		return
	}
	telemetry.WriteJSON(w, t)
}

func (s *Server) handleTickets(w http.ResponseWriter, req *http.Request) {
	tickets := s.Tickets()
	telemetry.WriteJSON(w, struct {
		Count   int      `json:"count"`
		Tickets []Ticket `json:"tickets"`
	}{Count: len(tickets), Tickets: tickets})
}
