package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"dtnsim"
	"dtnsim/client"
)

// maxSpecBytes bounds a submission body; spec documents are small, so
// the limit only guards against accidental uploads, which get a 413.
const maxSpecBytes = 1 << 20

// Server is the dtnsimd HTTP front end over a Manager.
type Server struct {
	jobs *Manager
	mux  *http.ServeMux
}

// New builds the service: manager, cache, and routes.
func New(opts Options) (*Server, error) {
	m, err := NewManager(opts)
	if err != nil {
		return nil, err
	}
	s := &Server{jobs: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.artifactHandler(fileResult, "application/json"))
	s.mux.HandleFunc("GET /v1/jobs/{id}/series", s.artifactHandler(fileSeries, "text/csv; charset=utf-8"))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.artifactHandler(fileEvents, "text/csv; charset=utf-8"))
	s.mux.HandleFunc("GET /v1/specs", s.handleSpecs)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager exposes the job manager (drain on shutdown, metrics).
func (s *Server) Manager() *Manager { return s.jobs }

// writeJSON renders a 2xx JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps a manager/spec error to its status code.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, dtnsim.ErrScenario), errors.Is(err, errBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, errNotFound):
		code = http.StatusNotFound
	case errors.Is(err, errNotDone):
		code = http.StatusConflict
	}
	writeJSON(w, code, client.ErrorBody{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, err)
		return
	}
	var req client.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, errors.Join(errBadRequest, err))
		return
	}
	job, err := s.jobs.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	state, _ := job.State()
	writeJSON(w, http.StatusAccepted, client.SubmitResponse{
		JobID: job.ID,
		Kind:  job.Kind,
		Key:   job.Key,
		// Done at submission means this submission started no work —
		// whether the bytes came from disk or from a finished in-memory
		// job, the caller is getting a cached result.
		Cached: job.Cached || state == client.StateDone,
		State:  state,
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.jobs.Cancel(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// artifactHandler serves one cached artifact verbatim: the bytes the
// worker wrote are the bytes every client gets, which is what makes
// repeat fetches byte-identical. The declared length lets the body go
// out unchunked and the client read it into one buffer of that size.
func (s *Server) artifactHandler(name, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		data, err := s.jobs.Artifact(r.PathValue("id"), name)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		// The last byte is left in the response buffer, which net/http
		// flushes after the handler returns. Otherwise a large body can
		// reach the client whole while the handler is still running, and
		// a handler span would end after the round trip that waited for
		// it (request tracing requires the one inside the other).
		if n := len(data); n > 0 {
			_, _ = w.Write(data[:n-1])
			_, _ = w.Write(data[n-1:])
		}
	}
}

func (s *Server) handleSpecs(w http.ResponseWriter, _ *http.Request) {
	out := client.Specs{DropPolicies: dtnsim.DropPolicies()}
	for _, p := range dtnsim.ProtocolSpecs() {
		out.Protocols = append(out.Protocols, client.SpecInfo{Name: p.Name, Usage: p.Usage})
	}
	for _, m := range dtnsim.MobilitySpecs() {
		out.Mobility = append(out.Mobility, client.SpecInfo{Name: m.Name, Usage: m.Usage})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.Metrics())
}
