package adserver

import (
	"reflect"
	"testing"
)

// TestPeriodStatsAddSumsEveryField sets every PeriodStats field to a
// distinct value on both sides and checks Add summed each one, so a
// field added later cannot be silently dropped from the pool's or the
// X8 experiment's period totals.
func TestPeriodStatsAddSumsEveryField(t *testing.T) {
	var a, b PeriodStats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		switch f := va.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
			vb.Field(i).SetInt(int64(100 * (i + 1)))
		case reflect.Float64:
			f.SetFloat(float64(i+1) + 0.25)
			vb.Field(i).SetFloat(float64(100*(i+1)) + 0.5)
		default:
			t.Fatalf("PeriodStats.%s has kind %s: teach Add and this test to sum it", va.Type().Field(i).Name, f.Kind())
		}
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		switch f := va.Field(i); f.Kind() {
		case reflect.Int:
			if got, want := f.Int(), int64(101*(i+1)); got != want {
				t.Errorf("Add left %s = %d, want %d", name, got, want)
			}
		case reflect.Float64:
			if got, want := f.Float(), float64(101*(i+1))+0.75; got != want {
				t.Errorf("Add left %s = %v, want %v", name, got, want)
			}
		}
	}
}
