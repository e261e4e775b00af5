// The benchmark harness is a module of its own so that the root
// module's `go build ./...` and `go test ./...` never see it. The
// module path sits under repro/ so the repo's internal packages stay
// importable; the replace points at the checkout the harness lives in.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
