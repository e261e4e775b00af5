package tenant

import (
	"testing"
)

func mustRegistry(t *testing.T, epoch uint64, cfgs []Config) *Registry {
	t.Helper()
	r, err := NewRegistry(epoch, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTenantRanges(t *testing.T) {
	r := mustRegistry(t, 1, []Config{
		{ID: "pub-b", Lo: 100, Hi: 200},
		{ID: "pub-a", Lo: 0, Hi: 50},
	})
	cases := []struct {
		client int
		want   string
	}{
		{0, "pub-a"}, {49, "pub-a"}, {50, Legacy}, {99, Legacy},
		{100, "pub-b"}, {199, "pub-b"}, {200, Legacy}, {-5, Legacy},
	}
	for _, c := range cases {
		if got := r.TenantOf(c.client); got != c.want {
			t.Errorf("TenantOf(%d) = %q, want %q", c.client, got, c.want)
		}
	}
	if got := r.IDs(); len(got) != 2 || got[0] != "pub-a" || got[1] != "pub-b" {
		t.Errorf("IDs() = %v, want range order [pub-a pub-b]", got)
	}
	if r.Epoch() != 1 {
		t.Errorf("Epoch() = %d, want 1", r.Epoch())
	}
	if cfg, ok := r.ConfigOf("pub-b"); !ok || cfg.Lo != 100 {
		t.Errorf("ConfigOf(pub-b) = %+v, %v", cfg, ok)
	}
	if _, ok := r.ConfigOf("nope"); ok {
		t.Error("ConfigOf(nope) found a tenant")
	}
}

func TestTenantNilRegistryIsLegacy(t *testing.T) {
	var r *Registry
	if got := r.TenantOf(7); got != Legacy {
		t.Errorf("nil registry TenantOf = %q", got)
	}
	d := r.Admit(7, 0, 1)
	if !d.OK || d.Tenant != Legacy {
		t.Errorf("nil registry Admit = %+v", d)
	}
}

func TestTenantValidation(t *testing.T) {
	bad := [][]Config{
		{{ID: "", Lo: 0, Hi: 10}},                             // reserved legacy id
		{{ID: "a", Lo: 10, Hi: 10}},                           // empty range
		{{ID: "a", Lo: 0, Hi: 10}, {ID: "b", Lo: 5, Hi: 15}},  // overlap
		{{ID: "a", Lo: 0, Hi: 10}, {ID: "a", Lo: 20, Hi: 30}}, // duplicate id
		{{ID: "a", Lo: 0, Hi: 10, RatePerSec: -1}},            // negative rate
		{{ID: "a", Lo: 0, Hi: 10, RatePerSec: 1, Burst: 0}},   // rate without burst
		{{ID: "a", Lo: 0, Hi: 10, MaxOpenBook: -3}},           // negative shed bound
		{{ID: "a", Lo: 0, Hi: 10}, {ID: "b", Lo: -10, Hi: 1}}, // overlap across negatives
	}
	for i, cfgs := range bad {
		if _, err := NewRegistry(0, cfgs); err == nil {
			t.Errorf("case %d: NewRegistry accepted invalid config %+v", i, cfgs)
		}
	}
}

func TestTenantTokenBucket(t *testing.T) {
	// 1 token/sec, burst 2: the first two ops at t=0 pass, the third is
	// refused with a retry hint, and one virtual second refills one op.
	r := mustRegistry(t, 0, []Config{{ID: "p", Lo: 0, Hi: 10, RatePerSec: 1, Burst: 2}})
	if d := r.Admit(3, 0, 1); !d.OK {
		t.Fatalf("first op refused: %+v", d)
	}
	if d := r.Admit(3, 0, 1); !d.OK {
		t.Fatalf("second op refused: %+v", d)
	}
	d := r.Admit(3, 0, 1)
	if d.OK {
		t.Fatal("third op admitted past the burst")
	}
	if d.Tenant != "p" || d.RetryAfter < 1 {
		t.Fatalf("refusal decision %+v", d)
	}
	if d := r.Admit(3, 1e9, 1); !d.OK {
		t.Fatalf("op after refill refused: %+v", d)
	}
	if d := r.Admit(3, 1e9, 1); d.OK {
		t.Fatal("second op after one-token refill admitted")
	}
}

func TestTenantBucketMonotonicClock(t *testing.T) {
	// An older timestamp must not roll the bucket back or double-refill.
	r := mustRegistry(t, 0, []Config{{ID: "p", Lo: 0, Hi: 10, RatePerSec: 1, Burst: 1}})
	if d := r.Admit(1, 5e9, 1); !d.OK {
		t.Fatalf("refused: %+v", d)
	}
	if d := r.Admit(1, 1e9, 1); d.OK {
		t.Fatal("stale timestamp refilled the bucket")
	}
	if d := r.Admit(1, 6e9, 1); !d.OK {
		t.Fatalf("refused after true refill: %+v", d)
	}
}

func TestTenantUnlimitedAndLegacyAdmit(t *testing.T) {
	r := mustRegistry(t, 0, []Config{{ID: "free", Lo: 0, Hi: 10}})
	for i := 0; i < 1000; i++ {
		if d := r.Admit(5, 0, 1); !d.OK || d.Tenant != "free" {
			t.Fatalf("unlimited tenant refused at op %d: %+v", i, d)
		}
	}
	// Outside every range: legacy, always admitted.
	if d := r.Admit(99, 0, 1); !d.OK || d.Tenant != Legacy {
		t.Fatalf("legacy admit = %+v", d)
	}
}

// admissionRegistry is the three-tenant table the admission benchmark
// and its allocation floor share: two rate-limited tenants that never
// refuse and one unlimited.
func admissionRegistry(tb testing.TB) *Registry {
	r, err := NewRegistry(1, []Config{
		{ID: "pub-a", Lo: 0, Hi: 1 << 16, RatePerSec: 1e12, Burst: 1e12},
		{ID: "pub-b", Lo: 1 << 16, Hi: 1 << 17, RatePerSec: 1e12, Burst: 1e12},
		{ID: "pub-c", Lo: 1 << 17, Hi: 1 << 18},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestAdmitDoesNotAllocate is the hot-path floor: the per-request
// admission check (range lookup + token bucket) runs in front of every
// slot and on-demand request and must allocate nothing.
func TestAdmitDoesNotAllocate(t *testing.T) {
	r, i := admissionRegistry(t), 0
	if n := testing.AllocsPerRun(1000, func() {
		r.Admit(i&(1<<18-1), int64(i)*1000, 1)
		i += 4099
	}); n != 0 {
		t.Fatalf("Admit allocates %v per call, want 0", n)
	}
}

// BenchmarkTenantAdmission times the same check (~20 ns).
func BenchmarkTenantAdmission(b *testing.B) {
	r := admissionRegistry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := r.Admit(i&(1<<18-1), int64(i)*1000, 1)
		if !d.OK {
			b.Fatal("benchmark config must never refuse")
		}
	}
}
