// Package telemetry is the simulator's live telemetry plane: an opt-in
// HTTP server that makes a running sweep observable while it executes
// instead of only post-hoc through artifact files.
//
// Endpoints:
//
//	/metrics  Prometheus text-format exposition: engine job gauges plus
//	          every in-flight run's metrics registry, labelled by
//	          mix/cores/scheme/org
//	/healthz  liveness; 503 with a reason once a stall watchdog or
//	          job-timeout fires
//	/readyz   readiness; flips 200 once the job queue is primed
//	/events   Server-Sent Events stream of job lifecycle, run lifecycle
//	          and epoch-sample deltas (`curl -N`)
//	/runs     JSON inventory of in-flight and checkpointed results
//
// Concurrency model: simulation counters are plain (non-atomic) fields
// read through registry closures, so HTTP goroutines never touch them.
// Instead each observed system publishes a consistent obs.Snapshot from
// its own simulation goroutine at every epoch-sample boundary, and
// /metrics serves the latest published snapshot. Event fan-out is bounded
// and non-blocking: a slow /events consumer loses events (counted in
// csalt_telemetry_events_dropped_total), never stalls the engine.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/csalt-sim/csalt/internal/checkpoint"
	"github.com/csalt-sim/csalt/internal/experiment"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/sim"
)

// MetricsPrefix namespaces every exposed metric family.
const MetricsPrefix = "csalt"

// Source is one labelled live metrics feed: an observed system's registry
// plus the latest consistent snapshot its simulation goroutine published.
type Source struct {
	Labels   []obs.Label
	Registry *obs.Registry
	Started  time.Time

	snap atomic.Value // obs.Snapshot
}

// publish stores a fresh snapshot taken on the owning goroutine.
func (s *Source) publish(snap obs.Snapshot) { s.snap.Store(snap) }

// latest returns the last published snapshot (nil before the first).
func (s *Source) latest() obs.Snapshot {
	if v := s.snap.Load(); v != nil {
		return v.(obs.Snapshot)
	}
	return nil
}

// Server is the telemetry plane. Construct with NewServer (embed the
// handler in a test server) or Start (own listener); attach an engine,
// runner, store or ad-hoc systems; flip Health.SetReady once the work
// queue is primed.
type Server struct {
	Health *Health
	Events *Broadcaster

	mu      sync.Mutex
	sources map[*Source]struct{}
	engine  *experiment.Engine
	store   *checkpoint.Store

	httpSrv *http.Server
	lis     net.Listener
}

// NewServer builds a telemetry server with no listener; use Handler to
// serve it.
func NewServer() *Server {
	return &Server{
		Health:  &Health{},
		Events:  NewBroadcaster(),
		sources: make(map[*Source]struct{}),
	}
}

// Start builds a server and begins serving on addr (e.g. "localhost:9100"
// or ":0" for an ephemeral port); the HTTP loop runs on its own
// goroutine. Close shuts it down.
func Start(addr string) (*Server, error) {
	s := NewServer()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listening on %s: %w", addr, err)
	}
	s.lis = lis
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go s.httpSrv.Serve(lis) //nolint:errcheck // Serve returns on Close
	return s, nil
}

// Addr returns the bound listen address ("" without a listener).
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close stops the event stream and, when Start opened one, the listener.
// In-flight SSE connections see end-of-stream.
func (s *Server) Close() error {
	s.Events.Close()
	if s.httpSrv != nil {
		return s.httpSrv.Close()
	}
	return nil
}

// Handler returns the telemetry mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/runs", s.handleRuns)
	return mux
}

// AttachStore exposes a checkpoint store's inventory on /runs.
func (s *Server) AttachStore(st *checkpoint.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = st
}

// LabelsFor derives the standard run-identity labels from a
// configuration.
func LabelsFor(cfg sim.Config) []obs.Label {
	return []obs.Label{
		{Name: "mix", Value: cfg.Mix.ID},
		{Name: "cores", Value: strconv.Itoa(cfg.Cores)},
		{Name: "scheme", Value: cfg.Scheme.String()},
		{Name: "org", Value: cfg.Org.String()},
	}
}

// AddSystem registers an already attached observer as a live metrics
// source for sys: the registry is served on /metrics under the run's
// labels, with values refreshed from the simulation goroutine at every
// epoch sample (the observer's sampler notify hook is claimed by this
// call). Epoch rows additionally stream over /events. The returned
// release retires the source; it is idempotent.
func (s *Server) AddSystem(sys *sim.System, o *obs.Observer) func() {
	cfg := sys.Config()
	labels := LabelsFor(cfg)
	src := &Source{Labels: labels, Registry: o.Registry, Started: time.Now()}
	// Initial snapshot: the system has not started running, so reading
	// the (all-zero) live counters here is race-free.
	if o.Registry != nil {
		src.publish(o.Registry.Snapshot())
	}
	if o.Sampler != nil {
		cols := o.Sampler.Columns()
		o.Sampler.SetNotify(func(row []float64) {
			// Runs on the simulation goroutine: a consistent snapshot is
			// safe here, and publishing it is what keeps /metrics live.
			if o.Registry != nil {
				src.publish(o.Registry.Snapshot())
			}
			s.publishEpoch(labels, cols, row)
		})
	}
	s.mu.Lock()
	s.sources[src] = struct{}{}
	s.mu.Unlock()
	s.publishRunEvent("start", labels)

	var once sync.Once
	return func() {
		once.Do(func() {
			// Final state: the run loop has stopped, so refresh from live
			// counters one last time before (and in case of) removal.
			if o.Registry != nil {
				src.publish(o.Registry.Snapshot())
			}
			s.mu.Lock()
			delete(s.sources, src)
			s.mu.Unlock()
			s.publishRunEvent("end", labels)
		})
	}
}

// AttachRunner observes every fresh simulation the runner starts: each
// run gets a registry plus epoch sampler wired into the live plane for
// its lifetime. Set up before the first run, like Runner.Observe itself.
func (s *Server) AttachRunner(r *experiment.Runner) {
	var mu sync.Mutex
	releases := make(map[*sim.System]func())
	r.Observe = func(sys *sim.System) {
		o := &obs.Observer{
			Registry: obs.NewRegistry(),
			Sampler:  obs.NewSampler(sim.SamplerColumns(), 0),
		}
		sys.AttachObserver(o)
		rel := s.AddSystem(sys, o)
		mu.Lock()
		releases[sys] = rel
		mu.Unlock()
	}
	r.ObserveDone = func(sys *sim.System) {
		mu.Lock()
		rel := releases[sys]
		delete(releases, sys)
		mu.Unlock()
		if rel != nil {
			rel()
		}
	}
}

// handleIndex lists the endpoints.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "csalt telemetry plane\n\n"+
		"/metrics  Prometheus exposition\n"+
		"/healthz  liveness\n"+
		"/readyz   readiness\n"+
		"/events   SSE stream (curl -N)\n"+
		"/runs     run inventory (JSON)\n")
}

// handleMetrics renders the Prometheus exposition: self gauges, engine
// gauges, then every source's latest published snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	pw := obs.NewPromWriter()

	pw.Counter(MetricsPrefix+"_telemetry_events_published_total",
		"Events offered to /events subscribers.", nil, float64(s.Events.Published()))
	pw.Counter(MetricsPrefix+"_telemetry_events_dropped_total",
		"Events dropped across slow /events subscribers.", nil, float64(s.Events.Dropped()))
	pw.Gauge(MetricsPrefix+"_telemetry_subscribers",
		"Current /events subscribers.", nil, float64(s.Events.Subscribers()))
	pw.Counter(MetricsPrefix+"_telemetry_degradations_total",
		"Health degradations recorded (stall watchdog / job timeout).", nil,
		float64(s.Health.Degradations()))

	s.mu.Lock()
	eng := s.engine
	srcs := make([]*Source, 0, len(s.sources))
	for src := range s.sources {
		srcs = append(srcs, src)
	}
	s.mu.Unlock()

	if eng != nil {
		st := eng.Stats()
		eg := func(name, help string, v float64) {
			pw.Gauge(MetricsPrefix+"_engine_"+name, help, nil, v)
		}
		eg("jobs_total", "Jobs handed to the engine.", float64(st.JobsTotal))
		eg("jobs_done", "Jobs with an outcome (success or failure).", float64(st.JobsDone))
		eg("jobs_running", "Jobs in flight right now.", float64(st.JobsRunning))
		eg("jobs_run", "Jobs that actually simulated.", float64(st.JobsRun))
		eg("jobs_failed", "Jobs that ended in a non-cancellation error.", float64(st.JobsFailed))
		eg("jobs_replayed", "Jobs served from the checkpoint store.", float64(st.JobsReplayed))
		eg("jobs_skipped", "Jobs never run (fail-fast or cancellation).", float64(st.JobsSkipped))
		eg("eta_seconds", "Extrapolated remaining sweep wall time.", eng.ETA().Seconds())
		eg("cycles_per_second", "Simulated-cycle throughput over summed job wall time.", st.CyclesPerSecond())
		eg("refs_per_second", "Measured memory references retired per second of summed job wall time.", st.RefsPerSecond())
	}

	// Deterministic source order: sort by rendered label identity.
	sort.Slice(srcs, func(i, j int) bool {
		return labelKey(srcs[i].Labels) < labelKey(srcs[j].Labels)
	})
	for _, src := range srcs {
		pw.AddRegistry(src.Registry, src.latest(), MetricsPrefix, src.Labels)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw.Write(w) //nolint:errcheck // client gone mid-scrape is not actionable
}

// labelKey renders a stable identity for a label set.
func labelKey(labels []obs.Label) string {
	key := ""
	for _, l := range labels {
		key += l.Name + "=" + l.Value + ";"
	}
	return key
}

// handleHealthz reports liveness: 200 while healthy, 503 with the
// degradation reason once a forward-progress guard has fired.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if _, reason := s.Health.Status(); reason != "" {
		http.Error(w, "degraded: "+reason, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: 503 until the work queue is primed (or
// while degraded), 200 after.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.Health.Status()
	switch {
	case reason != "":
		http.Error(w, "degraded: "+reason, http.StatusServiceUnavailable)
	case !ready:
		http.Error(w, "not ready: job queue not primed", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ready")
	}
}

// handleEvents serves the SSE stream: every published event as
// "event: <type>\ndata: <json>\n\n" frames, until the client disconnects
// or the server closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := s.Events.Subscribe(DefaultSubscriberBuffer)
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprint(w, ": csalt telemetry stream\n\n")
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-sub.C:
			if !open {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// runsResponse is the /runs payload.
type runsResponse struct {
	Ready        bool             `json:"ready"`
	Degraded     string           `json:"degraded,omitempty"`
	InFlight     []inFlightRun    `json:"in_flight"`
	Engine       *engineInventory `json:"engine,omitempty"`
	Checkpointed *storedInventory `json:"checkpointed,omitempty"`
}

type inFlightRun struct {
	Labels         map[string]string `json:"labels"`
	RunningSeconds float64           `json:"running_seconds"`
}

type engineInventory struct {
	JobsTotal    int     `json:"jobs_total"`
	JobsDone     int     `json:"jobs_done"`
	JobsRunning  int     `json:"jobs_running"`
	JobsFailed   int     `json:"jobs_failed"`
	JobsReplayed int     `json:"jobs_replayed"`
	JobsSkipped  int     `json:"jobs_skipped"`
	ETASeconds   float64 `json:"eta_seconds"`
}

type storedInventory struct {
	Count int      `json:"count"`
	Keys  []string `json:"keys"`
}

// handleRuns serves the JSON inventory of in-flight and checkpointed
// results.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.Health.Status()
	resp := runsResponse{Ready: ready, Degraded: reason, InFlight: []inFlightRun{}}

	s.mu.Lock()
	eng := s.engine
	store := s.store
	for src := range s.sources {
		lm := make(map[string]string, len(src.Labels))
		for _, l := range src.Labels {
			lm[l.Name] = l.Value
		}
		resp.InFlight = append(resp.InFlight, inFlightRun{
			Labels:         lm,
			RunningSeconds: time.Since(src.Started).Seconds(),
		})
	}
	s.mu.Unlock()
	sort.Slice(resp.InFlight, func(i, j int) bool {
		return fmt.Sprint(resp.InFlight[i].Labels) < fmt.Sprint(resp.InFlight[j].Labels)
	})

	if eng != nil {
		st := eng.Stats()
		resp.Engine = &engineInventory{
			JobsTotal: st.JobsTotal, JobsDone: st.JobsDone, JobsRunning: st.JobsRunning,
			JobsFailed: st.JobsFailed, JobsReplayed: st.JobsReplayed, JobsSkipped: st.JobsSkipped,
			ETASeconds: eng.ETA().Seconds(),
		}
	}
	if store != nil {
		resp.Checkpointed = &storedInventory{Count: store.Len(), Keys: store.Keys()}
	}

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp) //nolint:errcheck // client gone is not actionable
}

// publishEpoch streams one epoch-sample delta row.
func (s *Server) publishEpoch(labels []obs.Label, cols []string, row []float64) {
	payload := struct {
		Labels map[string]string `json:"labels"`
		Cols   []string          `json:"cols"`
		Row    []float64         `json:"row"`
	}{Labels: labelMap(labels), Cols: cols, Row: row}
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	s.Events.Publish(Event{Type: "epoch", Data: data})
}

// publishRunEvent streams a run lifecycle transition.
func (s *Server) publishRunEvent(phase string, labels []obs.Label) {
	payload := struct {
		Phase  string            `json:"phase"`
		Labels map[string]string `json:"labels"`
	}{Phase: phase, Labels: labelMap(labels)}
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	s.Events.Publish(Event{Type: "run", Data: data})
}

func labelMap(labels []obs.Label) map[string]string {
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Name] = l.Value
	}
	return m
}
