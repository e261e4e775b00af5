package obs

import (
	"net/http"
	"sync"
	"time"
)

// Metric names emitted by the HTTP middleware. Latency and size ride
// histograms (the _sum doubles as the byte/ns total); requests are
// counted per status class so dashboards can separate served traffic
// from shed (429) and failed requests.
const (
	MetricHTTPRequests   = "http_requests_total"      // {endpoint, code}
	MetricHTTPLatencyNS  = "http_request_latency_ns"  // histogram {endpoint}
	MetricHTTPRespBytes  = "http_response_bytes"      // histogram {endpoint}
	MetricHTTPReqBytes   = "http_request_bytes_total" // {endpoint}
	MetricHTTPReplays    = "http_replays_total"       // {endpoint}
	ReplayedHeader       = "Idempotency-Replayed"     // set by the dedup layer
	unknownEndpointLabel = "other"
)

// endpointStats holds the pre-resolved metric handles for one endpoint,
// so the per-request cost is a read-only map hit plus atomic updates.
type endpointStats struct {
	by2xx, by4xx, by5xx, by429, byOther *Counter
	latency                             *Histogram
	respBytes                           *Histogram
	reqBytes                            *Counter
	replays                             *Counter
}

func newEndpointStats(reg *Registry, endpoint string) *endpointStats {
	return &endpointStats{
		by2xx:     reg.Counter(MetricHTTPRequests, "endpoint", endpoint, "code", "2xx"),
		by4xx:     reg.Counter(MetricHTTPRequests, "endpoint", endpoint, "code", "4xx"),
		by5xx:     reg.Counter(MetricHTTPRequests, "endpoint", endpoint, "code", "5xx"),
		by429:     reg.Counter(MetricHTTPRequests, "endpoint", endpoint, "code", "429"),
		byOther:   reg.Counter(MetricHTTPRequests, "endpoint", endpoint, "code", "other"),
		latency:   reg.Histogram(MetricHTTPLatencyNS, "endpoint", endpoint),
		respBytes: reg.Histogram(MetricHTTPRespBytes, "endpoint", endpoint),
		reqBytes:  reg.Counter(MetricHTTPReqBytes, "endpoint", endpoint),
		replays:   reg.Counter(MetricHTTPReplays, "endpoint", endpoint),
	}
}

func (e *endpointStats) code(status int) *Counter {
	switch {
	case status == http.StatusTooManyRequests:
		return e.by429
	case status >= 200 && status < 300:
		return e.by2xx
	case status >= 400 && status < 500:
		return e.by4xx
	case status >= 500 && status < 600:
		return e.by5xx
	}
	return e.byOther
}

// respWriter counts bytes and captures the status code on the way out.
// Instances are pooled: a request borrows one for the duration of
// ServeHTTP and returns it before the middleware unwinds, so steady-state
// instrumentation adds no per-request heap allocation.
type respWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

var respWriterPool = sync.Pool{New: func() any { return new(respWriter) }}

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush passes through so streaming handlers keep working when wrapped.
func (w *respWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

type instrumented struct {
	next   http.Handler
	byPath map[string]*endpointStats
	other  *endpointStats
}

// Middleware instruments an HTTP handler: per-endpoint request counts
// by status class (2xx/4xx/5xx with 429 split out), a wall-clock
// latency histogram, request/response byte accounting, and
// idempotency-replay counts (detected via the Idempotency-Replayed
// response header the dedup layer sets).
//
// The endpoints list pre-registers the known URL paths; anything else
// lands under endpoint="other" so unexpected paths cannot grow the
// registry without bound. The per-request overhead is one read-only map
// lookup, two clock reads, and a handful of atomic adds.
func Middleware(reg *Registry, next http.Handler, endpoints ...string) http.Handler {
	in := &instrumented{
		next:   next,
		byPath: make(map[string]*endpointStats, len(endpoints)),
		other:  newEndpointStats(reg, unknownEndpointLabel),
	}
	for _, ep := range endpoints {
		in.byPath[ep] = newEndpointStats(reg, ep)
	}
	reg.SetHelp(MetricHTTPRequests, "HTTP requests served, by endpoint and status class.")
	reg.SetHelp(MetricHTTPLatencyNS, "Wall-clock request latency in nanoseconds, by endpoint.")
	reg.SetHelp(MetricHTTPRespBytes, "Response body sizes in bytes, by endpoint.")
	reg.SetHelp(MetricHTTPReqBytes, "Request body bytes received, by endpoint.")
	reg.SetHelp(MetricHTTPReplays, "Responses replayed from the idempotency dedup window, by endpoint.")
	return in
}

func (in *instrumented) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	st, ok := in.byPath[r.URL.Path]
	if !ok {
		st = in.other
	}
	rw := respWriterPool.Get().(*respWriter)
	rw.ResponseWriter, rw.status, rw.bytes = w, 0, 0
	defer func() {
		rw.ResponseWriter = nil // drop the conn reference before pooling
		respWriterPool.Put(rw)
	}()
	start := time.Now()
	in.next.ServeHTTP(rw, r)
	elapsed := time.Since(start)

	if rw.status == 0 {
		rw.status = http.StatusOK
	}
	st.code(rw.status).Inc()
	st.latency.Observe(elapsed.Nanoseconds())
	st.respBytes.Observe(rw.bytes)
	if r.ContentLength > 0 {
		st.reqBytes.Add(r.ContentLength)
	}
	if rw.Header().Get(ReplayedHeader) == "true" {
		st.replays.Inc()
	}
}
