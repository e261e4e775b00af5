package adserver

import "sort"

// Multi-tenant serving: each publisher (tenant) gets its own open book
// (pending heap, rescue cursor, live counts) and StartPeriod admission
// round, so one tenant's open book and forecasts never influence
// another's rescues, top-ups, or sales. The legacy tenant ("") keeps the original Server fields and
// snapshot encoding, so a single-tenant deployment is byte-for-byte
// unchanged.

// SetTenancy installs the client→tenant attribution. nil restores the
// legacy single-tenant behavior. Call between requests only (the server
// is externally locked, like every other method).
func (s *Server) SetTenancy(tenantOf func(clientID int) string) {
	s.tenantOf = tenantOf
}

// tenantOfClient maps a client id to its tenant ("" = legacy).
func (s *Server) tenantOfClient(id int) string {
	if s.tenantOf == nil {
		return ""
	}
	return s.tenantOf(id)
}

// bookOf returns one tenant's open book, creating it on first use. The
// legacy tenant keeps the original field.
func (s *Server) bookOf(tenant string) *openBook {
	if tenant == "" {
		return &s.book
	}
	b, ok := s.tenantBooks[tenant]
	if !ok {
		if s.tenantBooks == nil {
			s.tenantBooks = make(map[string]*openBook)
		}
		b = new(openBook)
		s.tenantBooks[tenant] = b
	}
	return b
}

// books lists every open book, the legacy tenant's first.
func (s *Server) books() []*openBook {
	out := []*openBook{&s.book}
	for _, b := range s.tenantBooks {
		out = append(out, b)
	}
	return out
}

// OpenBookOf returns one tenant's pending-heap size: the tenant's sold
// impressions awaiting display (lazily pruned, like OpenBook).
func (s *Server) OpenBookOf(tenant string) int {
	if tenant == "" {
		return len(s.book.heap)
	}
	if b := s.tenantBooks[tenant]; b != nil {
		return len(b.heap)
	}
	return 0
}

// tenantGroup is one tenant's slice of the client population.
type tenantGroup struct {
	tenant  string
	clients []int
}

// tenantGroups partitions the sorted client ids by tenant; the legacy
// group ("") sorts first. Tenants with no clients get no group — their
// inventory is only sold on demand.
func (s *Server) tenantGroups() []tenantGroup {
	idx := make(map[string]int)
	var groups []tenantGroup
	for _, id := range s.clientIDs {
		t := s.tenantOf(id)
		i, ok := idx[t]
		if !ok {
			i = len(groups)
			idx[t] = i
			groups = append(groups, tenantGroup{tenant: t})
		}
		groups[i].clients = append(groups[i].clients, id)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].tenant < groups[j].tenant })
	return groups
}
