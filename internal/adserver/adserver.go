// Package adserver implements the server side of the prefetching ad
// architecture. Once per prefetch period it collects every client's
// slot forecast, decides how much inventory is safe to sell (admission
// control), sells it in the exchange, replicates each sold impression
// across clients per the overbooking model, and hands back per-client
// prefetch bundles. At display time it routes impression reports to the
// exchange for billing, tracks claims so replicas can be cancelled, and
// closes each period by training the per-client predictors and sweeping
// expired impressions.
package adserver

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/auction"
	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/minheap"
	"repro/internal/overbook"
	"repro/internal/predict"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Config holds the server policy knobs.
type Config struct {
	// Period is the prefetch window length.
	Period time.Duration

	// DeadlineFactor caps how long a sold impression may wait before
	// display, as a multiple of the period (values > 1 grant a grace
	// window past the period boundary; 0 means exactly one period).
	DeadlineFactor float64

	// ReportLatency is the delay between a client displaying an ad and
	// the server learning about it (report batching / push channel).
	ReportLatency time.Duration

	// SyncDelay is the further delay until *other* clients learn that an
	// impression was claimed and stop displaying their replicas. Racing
	// displays inside this window are the system's revenue loss.
	SyncDelay time.Duration

	// Overbook is the replication/admission policy.
	Overbook overbook.Config

	// TopUpCap bounds how many open impressions a rescue contact may
	// carry back to the client's cache in one batch (0 disables top-up).
	// Since the client is already talking to the server — with a warm
	// radio — handing it more of the at-risk inventory is nearly free
	// and dynamically reassigns supply toward clients that are actually
	// active.
	TopUpCap int
}

// DefaultConfig returns the evaluation's operating point.
func DefaultConfig() Config {
	return Config{
		Period:        4 * time.Hour,
		ReportLatency: 5 * time.Second,
		// Cancellations ride the push-notification channel, so replicas
		// learn about claims within seconds; every second of this window
		// is revenue given away to racing replicas (F6 sweeps it up to
		// hours).
		SyncDelay: 15 * time.Second,
		Overbook:  overbook.DefaultConfig(),
		TopUpCap:  8,
		// Sold impressions may roll past the period boundary: the grace
		// half-period lets the next period's early slots absorb the tail
		// of the previous period's obligations.
		DeadlineFactor: 1.5,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Period <= 0:
		return fmt.Errorf("adserver: Period must be positive, got %v", c.Period)
	case c.ReportLatency < 0 || c.SyncDelay < 0:
		return fmt.Errorf("adserver: negative delay parameter")
	case c.TopUpCap < 0:
		return fmt.Errorf("adserver: negative TopUpCap")
	case c.DeadlineFactor < 0:
		return fmt.Errorf("adserver: negative DeadlineFactor")
	}
	return c.Overbook.Validate()
}

// Deadline returns the effective display deadline for sold impressions.
func (c Config) Deadline() time.Duration {
	if c.DeadlineFactor > 0 {
		return time.Duration(c.DeadlineFactor * float64(c.Period))
	}
	return c.Period
}

// Bundle is one client's prefetch assignment for a period.
type Bundle struct {
	Client int
	Ads    []client.CachedAd
}

// PeriodStats summarizes one StartPeriod round.
type PeriodStats struct {
	PredictedSlots float64 // aggregate point forecast
	Admitted       int     // impressions offered for sale
	Sold           int     // impressions actually sold
	Placed         int     // impressions with at least one replica
	Replicas       int     // total replicas across clients
}

// Add accumulates o into s, field by field: the one period-start sum
// over shards (shard.Pool.StartPeriod, experiment X8), so a new field is
// totalled everywhere or nowhere.
func (s *PeriodStats) Add(o PeriodStats) {
	s.PredictedSlots += o.PredictedSlots
	s.Admitted += o.Admitted
	s.Sold += o.Sold
	s.Placed += o.Placed
	s.Replicas += o.Replicas
}

// MeanK returns replicas per placed impression.
func (s PeriodStats) MeanK() float64 {
	if s.Placed == 0 {
		return 0
	}
	return float64(s.Replicas) / float64(s.Placed)
}

// Server is the ad server. Not safe for concurrent use; the simulator
// is single-threaded.
type Server struct {
	cfg Config
	ex  *auction.Exchange

	clientIDs  []int
	predictors map[int]predict.Predictor
	hints      func(clientID int) []trace.Category

	// mkPredictor is retained past construction so AdoptClients can
	// build a predictor instance for a client migrating in from another
	// node (see migrate.go).
	mkPredictor func(clientID int) predict.Predictor

	// imps holds one record per impression the server sold, adopted or
	// saw claimed, carved from impChunk (no heap object per sale).
	// Pending-heap entries point at their record, so only the id-keyed
	// entry points (ReportDisplay, CancellationKnown) hash. Records are
	// never pruned: the claim history lives as long as the process.
	imps     map[auction.ImpressionID]*impRecord
	impChunk []impRecord

	// slot counts observed during the current period, for training.
	slotCounts map[int]int

	// book is the legacy tenant's open book (named tenants: tenantBooks).
	book openBook

	// curPeriod is the period most recently opened by StartPeriod; the
	// top-up path sizes batches against its forecasts.
	curPeriod predict.Period

	// freqCount counts ads of one campaign routed to one client on one
	// day (assigned replicas, top-ups, rescues and on-demand sales all
	// count — conservative enforcement, since the exchange cannot know
	// which assigned replicas will actually display).
	freqCount map[freqKey]int

	// lastForecast carries the most recent round's aggregate forecast
	// from StartPeriod to EndPeriod (single-threaded, like the rest of
	// the serving state).
	lastForecast float64

	// Multi-tenant serving state (see tenant.go): client→tenant
	// attribution, plus one open book per named tenant (the legacy
	// tenant "" keeps book).
	tenantOf    func(clientID int) string
	tenantBooks map[string]*openBook

	// ops holds the streaming monitoring metrics behind their own lock
	// so snapshots never contend with the serving path.
	ops opsMetrics
}

// opsMetrics is the server's streaming forecast-health state: relative
// aggregate forecast error per period, tracked in O(1) memory (P²
// estimators) so a long-lived server can report health without
// unbounded state. It has its own mutex — unlike the rest of Server —
// so that a monitoring endpoint can snapshot it concurrently with
// period processing without taking the shard's serving lock (no
// stop-the-world stats scrapes).
type opsMetrics struct {
	mu     sync.Mutex
	rounds int64
	errP50 *metrics.P2Quantile
	errP95 *metrics.P2Quantile
}

// observe folds one round's relative forecast error into the stream.
func (o *opsMetrics) observe(relErr float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.errP50.Add(relErr)
	o.errP95.Add(relErr)
	o.rounds++
}

// OpsStats is a monitoring snapshot of the server's forecast health.
type OpsStats struct {
	Rounds         int64   `json:"rounds"`
	ForecastErrP50 float64 `json:"forecast_err_p50"` // |predicted-actual|/actual, median
	ForecastErrP95 float64 `json:"forecast_err_p95"`
}

// Ops returns the server's streaming monitoring snapshot. Unlike every
// other method, Ops is safe to call concurrently with period
// processing: the ops metrics live behind their own lock, so a stats
// scrape never blocks (or is blocked by) the serving path.
func (s *Server) Ops() OpsStats {
	s.ops.mu.Lock()
	defer s.ops.mu.Unlock()
	out := OpsStats{Rounds: s.ops.rounds}
	if s.ops.rounds > 0 {
		out.ForecastErrP50 = s.ops.errP50.Value()
		out.ForecastErrP95 = s.ops.errP95.Value()
	}
	return out
}

// freqKey identifies a (client, campaign, day) frequency bucket.
type freqKey struct {
	client   int
	campaign auction.CampaignID
	day      int
}

// freqCapOf returns a campaign's per-user daily frequency cap (0:
// uncapped, or unknown campaign). The exchange's campaign set is fixed at
// construction, so impRecord caches the value at sale.
func (s *Server) freqCapOf(campaign auction.CampaignID) int32 {
	c, _ := s.ex.Campaign(campaign)
	return int32(c.FreqCapPerUserDay)
}

// underCap reports whether routing one more ad of the campaign to the
// client on the given day respects the campaign's frequency cap limit.
func (s *Server) underCap(clientID int, campaign auction.CampaignID, limit int32, day int) bool {
	return limit <= 0 || s.freqCount[freqKey{clientID, campaign, day}] < int(limit)
}

func (s *Server) countCap(clientID int, campaign auction.CampaignID, limit int32, day int) {
	if limit > 0 {
		s.freqCount[freqKey{clientID, campaign, day}]++
	}
}

// impRecord is what the server remembers about one impression.
type impRecord struct {
	// campaign bought the impression and freqCap is its frequency cap;
	// valid when sold. An unsold record exists when an id this server
	// never sold is reported: the claim is still recorded.
	campaign auction.CampaignID
	freqCap  int32 // packs with the two flags: the record stays 56 bytes
	sold     bool

	// claimed is set by the first display report or rescue; learned is
	// the instant the *server* knew (display time + ReportLatency).
	claimed bool
	learned simclock.Time

	// holders are the clients the impression was replicated onto at sale
	// (none: no client had capacity); fixed while the impression is pending.
	holders []int

	// book is the open book whose heap holds the impression's entry, if any.
	book *openBook
}

// tier is the top-up preference class: 0, 1 or 2 (= many) replicas out.
func (r *impRecord) tier() int { return min(len(r.holders), 2) }

// claim records the first claim of the impression; later ones are
// ignored. A claimed entry stops counting as live in its book.
func (r *impRecord) claim(learned simclock.Time) {
	if r.claimed {
		return
	}
	r.claimed, r.learned = true, learned
	if r.book != nil {
		r.book.live[r.tier()]--
	}
}

// markSold records the buyer of an impression.
func (s *Server) markSold(r *impRecord, campaign auction.CampaignID) {
	r.sold, r.campaign, r.freqCap = true, campaign, s.freqCapOf(campaign)
}

// record returns the impression's record, creating it on first sight.
func (s *Server) record(id auction.ImpressionID) *impRecord {
	if r, ok := s.imps[id]; ok {
		return r
	}
	if len(s.impChunk) == cap(s.impChunk) {
		s.impChunk = make([]impRecord, 0, 512)
	}
	s.impChunk = append(s.impChunk, impRecord{})
	r := &s.impChunk[len(s.impChunk)-1]
	s.imps[id] = r
	return r
}

// pendingImp is one sold impression awaiting display; rec lets a scan
// test claimed / holder count / campaign without hashing the id.
type pendingImp struct {
	id       auction.ImpressionID
	deadline simclock.Time
	rec      *impRecord
}

// openBook is one tenant's open book: its sold impressions ordered by
// deadline, so that on-demand fallback requests can rescue the most
// at-risk impression instead of selling fresh inventory while sold ads
// expire. Claimed and expired entries are removed lazily, when they
// surface at the top.
type openBook struct {
	heap pendingHeap

	// cursor rotates top-up hand-outs across the heap array so
	// concurrent rescuers do not all duplicate the same impressions.
	cursor int

	// live counts the heap's unclaimed entries per holder tier, exactly:
	// a top-up walk for a tier with none is skipped.
	live [3]int
}

// link counts a record whose entry is entering the book's heap.
func (b *openBook) link(r *impRecord) {
	r.book = b
	if !r.claimed {
		b.live[r.tier()]++
	}
}

// forget unlinks a record whose entry left the heap for good.
func (b *openBook) forget(r *impRecord) {
	if !r.claimed {
		b.live[r.tier()]--
	}
	r.book = nil
}

// pendingHeap is a min-heap by (deadline, id), sifted exactly as
// container/heap would: the array order is what TopUp walks, and so
// part of the determinism contract.
type pendingHeap []pendingImp

func pendingLess(a, b *pendingImp) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.id < b.id
}

func (h *pendingHeap) push(e pendingImp) { *h = minheap.Push(*h, e, pendingLess) }

func (h *pendingHeap) pop() (e pendingImp) {
	*h, e = minheap.Pop(*h, pendingLess)
	return e
}

// New creates a server over the given exchange and client set.
// mkPredictor builds one predictor per client; hints (optional) supplies
// per-client category context offered to the exchange.
func New(cfg Config, ex *auction.Exchange, clientIDs []int,
	mkPredictor func(clientID int) predict.Predictor,
	hints func(clientID int) []trace.Category) (*Server, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ex == nil {
		return nil, fmt.Errorf("adserver: nil exchange")
	}
	if mkPredictor == nil {
		return nil, fmt.Errorf("adserver: nil predictor factory")
	}
	p50, err := metrics.NewP2Quantile(0.5)
	if err != nil {
		return nil, err
	}
	p95, err := metrics.NewP2Quantile(0.95)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		ex:          ex,
		ops:         opsMetrics{errP50: p50, errP95: p95},
		clientIDs:   append([]int(nil), clientIDs...),
		predictors:  make(map[int]predict.Predictor, len(clientIDs)),
		hints:       hints,
		mkPredictor: mkPredictor,
		imps:        make(map[auction.ImpressionID]*impRecord),
		slotCounts:  make(map[int]int),
		freqCount:   make(map[freqKey]int),
	}
	sort.Ints(s.clientIDs)
	for _, id := range s.clientIDs {
		s.predictors[id] = mkPredictor(id)
	}
	return s, nil
}

// Config returns the server configuration.
func (s *Server) Config() Config { return s.cfg }

// Exchange returns the underlying exchange (for ledger inspection).
func (s *Server) Exchange() *auction.Exchange { return s.ex }

// OpenBook returns the number of entries across all open books: sold
// impressions awaiting display. Claimed and expired entries are removed
// lazily, so this is an upper bound on the truly open book — the
// load-shedding signal, and the length of the array a top-up walks.
func (s *Server) OpenBook() int {
	n := len(s.book.heap)
	for _, b := range s.tenantBooks {
		n += len(b.heap)
	}
	return n
}

// Predictor returns the predictor of one client (nil if unknown),
// so tests and the simulator can inspect forecasts.
func (s *Server) Predictor(clientID int) predict.Predictor { return s.predictors[clientID] }

// StartPeriod runs the prefetch round for the period beginning at now:
// forecast, admission, sale, replication, bundling. Clients with empty
// bundles are omitted from the result. Under tenancy the round runs
// once per tenant group — each tenant's forecasts admit only that
// tenant's inventory, sold to that tenant's campaigns and replicated
// onto that tenant's clients.
func (s *Server) StartPeriod(now simclock.Time, p predict.Period) ([]Bundle, PeriodStats) {
	var stats PeriodStats
	s.curPeriod = p
	defer func() { s.lastForecast = stats.PredictedSlots }()

	var pairs []bundlePair
	built := false
	if s.tenantOf == nil {
		built = s.startGroup(now, p, s.clientIDs, "", nil, &stats, &pairs)
	} else {
		for _, g := range s.tenantGroups() {
			tenant := g.tenant
			allow := func(c auction.CampaignID) bool {
				camp, ok := s.ex.Campaign(c)
				return ok && camp.Tenant == tenant
			}
			if s.startGroup(now, p, g.clients, tenant, allow, &stats, &pairs) {
				built = true
			}
		}
	}
	if !built {
		return nil, stats
	}
	return s.bundlesOf(pairs), stats
}

// bundlePair is one replica bound for a client's bundle: at is the
// client's index in s.clientIDs.
type bundlePair struct {
	at int
	ad client.CachedAd
}

// bundlesOf groups the round's replicas into one bundle per client, in
// client order, each client's ads in sale order. It is a counting sort
// on the client index: the bundles share one backing array, each carved
// full-cap so an append to one cannot overwrite the next.
func (s *Server) bundlesOf(pairs []bundlePair) []Bundle {
	// ends[i] counts client i's ads, then (prefix sums) is where they
	// start, then (after the scatter) where they end.
	ends := make([]int, len(s.clientIDs))
	clients := 0
	for _, pr := range pairs {
		if ends[pr.at] == 0 {
			clients++
		}
		ends[pr.at]++
	}
	start := 0
	for i, n := range ends {
		ends[i] = start
		start += n
	}
	ads := make([]client.CachedAd, len(pairs))
	for _, pr := range pairs {
		ads[ends[pr.at]] = pr.ad
		ends[pr.at]++
	}
	out := make([]Bundle, 0, clients)
	lo := 0
	for i, hi := range ends {
		if hi > lo {
			out = append(out, Bundle{Client: s.clientIDs[i], Ads: ads[lo:hi:hi]})
		}
		lo = hi
	}
	return out
}

// startGroup runs one tenant's forecast/admission/sale/replication
// round, accumulating into the shared stats and the round's replicas.
// It reports whether the round reached the bundling stage (sold
// anything), which preserves the legacy nil-vs-empty reply distinction.
func (s *Server) startGroup(now simclock.Time, p predict.Period, clientIDs []int,
	tenant string, allow func(auction.CampaignID) bool,
	stats *PeriodStats, pairs *[]bundlePair) bool {

	// One slab each for the candidates and the distributions they
	// point at, resolved once here so the planner's per-replica
	// question costs no context lookup.
	cands := make([]overbook.Candidate, len(clientIDs))
	cdfs := make([]predict.CDF, len(clientIDs))
	for i, id := range clientIDs {
		pred := s.predictors[id]
		est := pred.Predict(p)
		stats.PredictedSlots += est.Slots
		cands[i] = overbook.Candidate{
			Client:         id,
			PredictedSlots: est.Slots,
			ExpectedSlots:  est.Mean,
			VarSlots:       est.Var,
			NoShowProb:     est.NoShowProb,
		}
		if dist, ok := pred.(predict.Distribution); ok {
			cdfs[i] = dist.CDF(p)
			cands[i].Shortfall = &cdfs[i]
		}
	}

	admitted := overbook.AdmissionCount(cands, s.cfg.Overbook)
	stats.Admitted += admitted
	if admitted == 0 {
		return false
	}

	sold := s.ex.SellSlotsFiltered(now, admitted, s.aggregateHintsOf(clientIDs), s.cfg.Deadline(), allow)
	stats.Sold += len(sold)
	if len(sold) == 0 {
		return false
	}

	ptrs := make([]*overbook.Candidate, len(cands))
	for i := range cands {
		ptrs[i] = &cands[i]
	}
	planner, err := overbook.NewPlanner(s.cfg.Overbook, ptrs)
	if err != nil {
		// Config was validated at construction; a failure here is a bug.
		panic(err)
	}
	maxK := s.cfg.Overbook.MaxReplicas
	if k := s.cfg.Overbook.FixedReplicas; k > 0 {
		maxK = k
	}
	*pairs = slices.Grow(*pairs, len(sold)*maxK)
	day := now.DayIndex()
	book := s.bookOf(tenant)
	for _, imp := range sold {
		rec := s.record(imp.ID)
		s.markSold(rec, imp.Campaign)
		limit := rec.freqCap
		holders, _ := planner.PlanOne()
		// Frequency caps: drop holders already saturated with this
		// campaign today.
		kept := holders[:0]
		for _, c := range holders {
			if s.underCap(c, imp.Campaign, limit, day) {
				kept = append(kept, c)
				s.countCap(c, imp.Campaign, limit, day)
			}
		}
		holders = kept
		rec.holders = holders
		book.link(rec)
		book.heap.push(pendingImp{id: imp.ID, deadline: imp.Deadline, rec: rec})
		if len(holders) == 0 {
			continue // no capacity anywhere; will expire as a violation
		}
		stats.Placed++
		stats.Replicas += len(holders)
		for _, c := range holders {
			at, _ := slices.BinarySearch(s.clientIDs, c)
			*pairs = append(*pairs, bundlePair{
				at: at,
				ad: client.CachedAd{
					ID:       imp.ID,
					Deadline: imp.Deadline,
					Tie:      displayTie(c, imp.ID),
				},
			})
		}
	}
	return true
}

// aggregateHintsOf unions the given clients' category hints (prefetched
// inventory is sold against the population's category mix, since the
// exact app a predicted slot will open in is unknown).
func (s *Server) aggregateHintsOf(clientIDs []int) []trace.Category {
	if s.hints == nil {
		return nil
	}
	seen := map[trace.Category]bool{}
	var out []trace.Category
	for _, id := range clientIDs {
		for _, c := range s.hints(id) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ObserveSlot records that a client's ad slot fired (for end-of-period
// predictor training).
func (s *Server) ObserveSlot(clientID int) { s.slotCounts[clientID]++ }

// ReportDisplay processes a display report: the first report of an
// impression records the claim (other replicas become cancellable once
// ReportLatency + SyncDelay elapse) and the exchange bills or counts a
// free show as appropriate.
func (s *Server) ReportDisplay(id auction.ImpressionID, displayAt simclock.Time) error {
	s.record(id).claim(displayAt.Add(s.cfg.ReportLatency))
	return s.ex.RecordDisplay(id, displayAt)
}

// CancellationKnown reports whether a client checking at instant at
// already knows impression id was claimed elsewhere: the claim must
// have reached the server and then propagated for SyncDelay.
func (s *Server) CancellationKnown(id auction.ImpressionID, at simclock.Time) bool {
	r, ok := s.imps[id]
	if !ok || !r.claimed {
		return false
	}
	return !r.learned.Add(s.cfg.SyncDelay).After(at)
}

// RescueOpen serves the most urgent open (sold, unclaimed, unexpired)
// prefetch impression to an on-demand request: the slot's eyeballs go to
// an obligation the exchange has already sold rather than to fresh
// inventory, which is what keeps the SLA violation rate down to the
// aggregate supply shortfall. The impression is billed at now and its
// replicas become cancellable immediately (the server itself served it,
// so there is no report latency). ok is false when nothing is pending.
func (s *Server) RescueOpen(now simclock.Time, clientID int) (auction.ImpressionID, bool) {
	day := now.DayIndex()
	b := s.bookOf(s.tenantOfClient(clientID))
	// Skimmed entries that are valid but frequency-capped for this
	// client are pushed back after the scan.
	var skipped []pendingImp
	var hit pendingImp // rec stays nil until an entry is served
	for len(b.heap) > 0 && hit.rec == nil {
		top := b.heap.pop()
		r := top.rec
		switch {
		case r.claimed, now.After(top.deadline): // expired: the sweep will record it
			b.forget(r)
		case !s.underCap(clientID, r.campaign, r.freqCap, day):
			skipped = append(skipped, top)
		default:
			r.claim(now)
			b.forget(r)
			hit = top
		}
	}
	for _, e := range skipped {
		b.heap.push(e)
	}
	if hit.rec == nil {
		return 0, false
	}
	s.countCap(clientID, hit.rec.campaign, hit.rec.freqCap, day)
	if err := s.ex.RecordDisplay(hit.id, now); err != nil {
		// The impression was open per our bookkeeping; a failure here
		// is a bug, not an environmental condition.
		panic(err)
	}
	return hit.id, true
}

// TopUp returns up to TopUpCap open impressions for the client to carry
// home in its cache, sized by the client's remaining forecast slots for
// the current period. The impressions stay in the pending set — they are
// extra replicas, still rescuable elsewhere; the claim protocol dedups.
//
// Impressions with few outstanding replicas are preferred: handing out a
// copy of an ad that is already widely cached mostly creates duplicate
// displays (revenue loss), while a copy of a thinly-replicated ad
// genuinely improves its odds.
//
// The rule (DESIGN §3.3.4): walk the heap array from the cursor, wrapping
// once, taking unclaimed, unexpired, under-cap entries with no holder;
// walk again for exactly one holder, then for the rest. A walk takes
// only its own tier — earlier walks took or rejected for good everything
// below it — so nothing is handed out twice.
func (s *Server) TopUp(now simclock.Time, clientID int) []client.CachedAd {
	b := s.bookOf(s.tenantOfClient(clientID))
	n := len(b.heap)
	if s.cfg.TopUpCap <= 0 || n == 0 {
		return nil
	}
	pred, ok := s.predictors[clientID]
	if !ok {
		return nil
	}
	est := pred.Predict(s.curPeriod)
	want := min(int(est.Slots)-s.slotCounts[clientID], s.cfg.TopUpCap)
	if want <= 0 {
		return nil
	}
	out := make([]client.CachedAd, 0, want)
	start := b.cursor % n
	day := now.DayIndex()
	for tier := 0; tier < len(b.live) && len(out) < want; tier++ {
		if b.live[tier] == 0 {
			continue
		}
		for i, visited := start, 0; visited < n && len(out) < want; visited++ {
			e := &b.heap[i]
			if i++; i == n {
				i = 0
			}
			r := e.rec
			if now.After(e.deadline) || r.claimed || r.tier() != tier ||
				!s.underCap(clientID, r.campaign, r.freqCap, day) {
				continue
			}
			s.countCap(clientID, r.campaign, r.freqCap, day)
			out = append(out, client.CachedAd{
				ID:       e.id,
				Deadline: e.deadline,
				Tie:      displayTie(clientID, e.id),
			})
		}
	}
	b.cursor = (b.cursor + want) % n
	return out
}

// OnDemandSell runs the status-quo RTB path: sell one slot with the
// given category hints and bill it immediately (the ad is fetched and
// displayed in-line). Frequency-capped campaigns do not bid for clients
// they have saturated today. ok is false when no campaign bid.
func (s *Server) OnDemandSell(now simclock.Time, clientID int, hints []trace.Category) (auction.Impression, bool) {
	day := now.DayIndex()
	tenant := s.tenantOfClient(clientID)
	sold := s.ex.SellSlotsFiltered(now, 1, hints, s.cfg.Deadline(), func(c auction.CampaignID) bool {
		if s.tenantOf != nil {
			if camp, ok := s.ex.Campaign(c); !ok || camp.Tenant != tenant {
				return false
			}
		}
		return s.underCap(clientID, c, s.freqCapOf(c), day)
	})
	if len(sold) == 0 {
		return auction.Impression{}, false
	}
	s.countCap(clientID, sold[0].Campaign, s.freqCapOf(sold[0].Campaign), day)
	if err := s.ex.RecordDisplay(sold[0].ID, now); err != nil {
		panic(err) // impression was just created; failure is a bug
	}
	return sold[0], true
}

// Miss is what the cache-miss fallback served a slot.
type Miss struct {
	// Impression is the impression displayed; 0 when nothing was open
	// to rescue and no campaign bid, so the slot shows a house ad.
	Impression auction.ImpressionID

	// Rescued is true when Impression is an already-sold open
	// impression rather than a fresh sale.
	Rescued bool

	// TopUp is the open impressions the rescue contact carries back
	// into the client's cache (rescues only).
	TopUp []client.CachedAd
}

// ServeMiss runs the cache-miss fallback for a slot on clientID at now.
// With rescue it first serves the most urgent open sold impression
// (RescueOpen) and tops the client's cache up (TopUp); otherwise, or
// when nothing is open, it sells fresh inventory targeted by hints
// (OnDemandSell).
func (s *Server) ServeMiss(now simclock.Time, clientID int, hints []trace.Category, rescue bool) Miss {
	if rescue {
		if id, ok := s.RescueOpen(now, clientID); ok {
			return Miss{Impression: id, Rescued: true, TopUp: s.TopUp(now, clientID)}
		}
	}
	var m Miss
	if imp, ok := s.OnDemandSell(now, clientID, hints); ok {
		m.Impression = imp.ID
	}
	return m
}

// EndPeriod closes the period that just elapsed: trains every client's
// predictor on the observed slot counts, resets the counters, and
// sweeps expired impressions in the exchange. It returns the number of
// impressions that expired (SLA violations this period).
func (s *Server) EndPeriod(now simclock.Time, p predict.Period) int {
	if s.lastForecast > 0 {
		actual := 0
		for _, n := range s.slotCounts {
			actual += n
		}
		if actual > 0 {
			relErr := (s.lastForecast - float64(actual)) / float64(actual)
			if relErr < 0 {
				relErr = -relErr
			}
			s.ops.observe(relErr)
		}
		s.lastForecast = 0
	}
	for _, id := range s.clientIDs {
		s.predictors[id].Observe(p, s.slotCounts[id])
	}
	for k := range s.slotCounts {
		delete(s.slotCounts, k)
	}
	return s.ex.SweepExpired(now)
}

// displayTie returns the per-(client, impression) display-order key
// that decorrelates replica positions across clients.
func displayTie(clientID int, imp auction.ImpressionID) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	u, v := uint64(clientID), uint64(imp)
	for i := 0; i < 8; i++ {
		buf[i] = byte(u >> (8 * i))
		buf[8+i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// predictorState is the wire form of one client's persisted predictor.
type predictorState struct {
	Client int             `json:"client"`
	Data   json.RawMessage `json:"data"`
}

// SavePredictors persists every snapshot-capable predictor's learned
// state as JSON. The usage histories are the server's only long-lived
// state; in-flight auctions are transactional and a restart forfeits at
// most the current period.
func (s *Server) SavePredictors(w io.Writer) error {
	var states []predictorState
	for _, id := range s.clientIDs {
		snap, ok := s.predictors[id].(predict.Snapshotter)
		if !ok {
			continue
		}
		data, err := snap.Snapshot()
		if err != nil {
			return fmt.Errorf("adserver: snapshotting client %d: %w", id, err)
		}
		states = append(states, predictorState{Client: id, Data: data})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(states)
}

// LoadPredictors restores predictor state saved by SavePredictors.
// Clients present in the snapshot but unknown to this server are
// skipped (the fleet may have churned between runs); known clients with
// non-snapshot predictors are skipped too.
func (s *Server) LoadPredictors(r io.Reader) error {
	var states []predictorState
	if err := json.NewDecoder(r).Decode(&states); err != nil {
		return fmt.Errorf("adserver: decoding predictor snapshot: %w", err)
	}
	for _, st := range states {
		pred, ok := s.predictors[st.Client]
		if !ok {
			continue
		}
		snap, ok := pred.(predict.Snapshotter)
		if !ok {
			continue
		}
		if err := snap.Restore(st.Data); err != nil {
			return fmt.Errorf("adserver: restoring client %d: %w", st.Client, err)
		}
	}
	return nil
}

// ReplicaHolders returns the clients an impression was assigned to.
func (s *Server) ReplicaHolders(id auction.ImpressionID) []int {
	if r, ok := s.imps[id]; ok {
		return append([]int(nil), r.holders...)
	}
	return nil
}
