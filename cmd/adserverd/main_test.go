package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The daemon refuses flag combinations that would boot a node whose
// state is silently wrong, before it opens a listener or a log.
func TestRefusesInconsistentFlags(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "adserverd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"state with wal", []string{"-state", filepath.Join(dir, "preds.json"), "-wal", filepath.Join(dir, "wal")}, "-state with -wal"},
		{"member without ring size", []string{"-cluster-node", "2"}, "-cluster-node 2 needs -cluster-size"},
		{"zero shards", []string{"-shards", "0"}, "-shards must be >= 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			// A refusal that fails to fire would serve forever; the
			// deadline turns that into a failure instead of a hang.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, append(c.args, "-addr", "127.0.0.1:0")...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || ctx.Err() != nil {
				t.Fatalf("%v: want a non-zero exit, got err=%v\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("%v: output lacks %q:\n%s", c.args, c.want, out)
			}
		})
	}
}
