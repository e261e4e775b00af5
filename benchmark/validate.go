package main

import "fmt"

// validatePooled checks a run's pooled outcome before any result is
// printed: the books balance, nothing failed or was retried, and each
// layer worked exactly on the workloads that are supposed to reach it.
func validatePooled(w workload, p pooled) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("validation (%s): %s", w.Name, fmt.Sprintf(format, args...))
	}
	l, lc := p.ledger, p.layer
	switch {
	case l.Sold == 0:
		return bad("nothing was sold")
	case l.Billed+l.Violations != l.Sold:
		return bad("conservation broken: billed %d + violations %d != sold %d", l.Billed, l.Violations, l.Sold)
	case p.failed != 0:
		return bad("%d of %d attempts failed", p.failed, p.attempted)
	case p.net.Retries != 0:
		return bad("%d requests were retried on a fault-free run", p.net.Retries)
	case w.wal && (lc.walAppends == 0 || lc.walBytes == 0):
		return bad("the WAL is on the path but logged nothing")
	case !w.wal && (lc.walAppends != 0 || lc.walBytes != 0 || lc.walFsyncs != 0):
		return bad("WAL counters moved on a workload without a WAL")
	case w.routed && lc.clusterForwards == 0:
		return bad("the router is on the path but forwarded nothing")
	case !w.routed && (lc.clusterForwards != 0 || lc.misdirected != 0 || lc.unavailable != 0):
		return bad("cluster counters moved on a workload without a router")
	case !w.wire && (p.net.Attempts != 0 || lc.httpRequests != 0):
		return bad("transport calls on the in-process workload")
	}
	if !w.wire {
		// The in-process workload is the paper's mechanism: it must
		// reproduce the paper's claims against its own on-demand reference.
		saving := 1 - p.adJ/p.refAdJ
		if p.refAdJ <= 0 || saving < 0.5 {
			return bad("ad energy saving %.3f is below the paper's 50%%", saving)
		}
		if sla := 1 - l.ViolationRate(); sla < 0.99 {
			return bad("SLA met %.4f is below 0.99", sla)
		}
	}
	return nil
}
