// Package wal provides the ad server's crash-safe durability layer: a
// length-prefixed, CRC-checksummed write-ahead log of every mutating
// transport operation, plus generation-based full-state snapshots that
// truncate the log.
//
// The contract the transport layer builds on is append-before-ack: a
// mutating request's record is made durable (written and fsynced)
// before the response leaves the server. A crash therefore loses only
// operations that were never acknowledged — exactly the ones the
// client-side retry/idempotency machinery re-delivers — so recovery
// (snapshot restore + log replay) plus client retries reconstructs the
// pre-crash state with exactly-once accounting.
//
// Records carry the operation's idempotency fingerprint (the same
// per-op keys the dedup window uses), so replaying a log through the
// normal execution path rebuilds both the engine state and the dedup
// window: a retry that straddles the restart replays instead of
// double-executing.
//
// On disk a generation g is the pair snap-g.json (full state at the
// instant generation g began; absent for generation 0) and wal-g.log
// (every record since). A checkpoint writes snap-(g+1).json atomically,
// creates wal-(g+1).log, and only then deletes generation g — at every
// crash point either the old pair or the new pair is complete, so
// recovery always has a consistent base.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// fileMagic begins every log file, so recovery can reject files that
// were never a WAL at all (a rename gone wrong, an operator mistake).
const fileMagic = "adwal\x00v1"

// MaxRecordBytes bounds one record's payload. It matches the transport
// layer's request-body cap, so any intact record is decodable without
// unbounded allocation, and a corrupt length field cannot force one.
const MaxRecordBytes = 1 << 20

// ErrSealed is returned by Append after Seal: the log refuses further
// durability so a crash harness (or a fail-stopped server) cannot ack
// operations that will not survive.
var ErrSealed = errors.New("wal: log sealed")

// Record is one logged mutating operation. Shard routes replay to the
// owning shard; Op names the record kind (the transport layer logs
// client-op batches and per-shard period boundaries); Key carries the
// operation's idempotency fingerprint when it has a single one; Body is
// the kind-specific payload.
type Record struct {
	Shard int             `json:"shard"`
	Op    string          `json:"op"`
	Key   string          `json:"key,omitempty"`
	Body  json.RawMessage `json:"body,omitempty"`
}

// Options configures a Log.
type Options struct {
	// NoSync skips the per-append fsync. Appends are still ordered and
	// framed; a machine crash may lose the tail. For tests and
	// benchmarks — production keeps the durability contract.
	NoSync bool

	// Hook, when set, runs after every durable append, before the append
	// returns to the caller — i.e. between the record becoming durable
	// and the response being acknowledged. The crash harness uses it to
	// schedule kills at exactly that adversarial instant; a Hook may
	// panic to abort the in-flight request.
	Hook func(Record)
}

// Stats is a point-in-time counter snapshot of a Log.
type Stats struct {
	Gen              int           // current generation
	Records          int64         // records in the current generation (replayed + appended)
	Appends          int64         // records appended since Open
	Fsyncs           int64         // fsync calls since Open
	Bytes            int64         // bytes appended since Open
	Replayed         int64         // records replayed by Recover
	RecoveryDuration time.Duration // wall time Recover took (0 before recovery)
	LastFsyncOK      bool          // false after any append/sync failure
	Sealed           bool
}

// RecoverStats summarizes one Recover pass.
type RecoverStats struct {
	SnapshotRestored bool  // a snapshot file existed and was restored
	Replayed         int64 // intact records replayed
	Damaged          bool  // the log had a corrupt/truncated tail
	DroppedBytes     int64 // bytes cut from the corrupt tail
}

// Log is an append-only write-ahead log rooted in one directory. Append
// is safe for concurrent use; Snapshot and Recover must be called with
// the logged state quiesced (the transport layer holds its shard locks).
//
// Durability is group-committed: concurrent Appends write their frames
// under the write lock, then queue on the commit lock, where whichever
// appender reaches the file first fsyncs once on behalf of everyone
// whose frame is already on disk. An Append still never returns before
// its own record is covered by a flush — the append-before-ack contract
// is unchanged — but N requests racing through the serving path cost
// one fsync, not N.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex // guards f, gen, records, writeSeq (frame writes)
	f        *os.File
	gen      int
	records  int64
	writeSeq int64 // frames written, monotonic across generations

	commitMu  sync.Mutex // guards syncedSeq; held across fsync
	syncedSeq int64      // highest writeSeq covered by a flush

	sealed      atomic.Bool
	appends     atomic.Int64
	fsyncs      atomic.Int64
	bytes       atomic.Int64
	replayed    atomic.Int64
	recoveryNS  atomic.Int64
	fsyncFailed atomic.Bool
}

func walName(gen int) string  { return fmt.Sprintf("wal-%08d.log", gen) }
func snapName(gen int) string { return fmt.Sprintf("snap-%08d.json", gen) }

// parseGen extracts the generation from a wal file name (ok=false for
// anything else).
func parseGen(name string) (int, bool) {
	var g int
	if n, err := fmt.Sscanf(name, "wal-%d.log", &g); err == nil && n == 1 {
		return g, true
	}
	return 0, false
}

// Open opens (or creates) the log in dir, selecting the highest
// complete generation and pruning leftovers of older ones. Call Recover
// before the first Append: recovery is what guarantees new records land
// after a clean prefix rather than behind a corrupt tail.
func Open(dir string, opt Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	gen, found := 0, false
	for _, e := range entries {
		if g, ok := parseGen(e.Name()); ok && (!found || g > gen) {
			gen, found = g, true
		}
	}
	l := &Log{dir: dir, opt: opt, gen: gen}
	l.fsyncFailed.Store(false)
	path := filepath.Join(dir, walName(gen))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if st.Size() == 0 {
		if err := l.writeHeaderLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	// Prune every other generation's files: the checkpoint sequence
	// guarantees the highest wal-g is usable, so anything else is a
	// leftover of an interrupted rotation. An orphan snap-(g+1) without
	// its wal is superseded by snap-g + wal-g replay and is removed too.
	for _, e := range entries {
		name := e.Name()
		if name == walName(gen) || name == snapName(gen) {
			continue
		}
		if g, ok := parseGen(name); ok && g != gen {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		var g int
		if n, err := fmt.Sscanf(name, "snap-%d.json", &g); err == nil && n == 1 && g != gen {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	return l, nil
}

// writeHeaderLocked writes and syncs the file magic; l.mu or exclusive
// setup access required.
func (l *Log) writeHeaderLocked() error {
	if _, err := l.f.Write([]byte(fileMagic)); err != nil {
		return fmt.Errorf("wal: writing header: %w", err)
	}
	if !l.opt.NoSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: syncing header: %w", err)
		}
		l.fsyncs.Add(1)
	}
	return nil
}

// Seal makes every subsequent Append fail with ErrSealed. The crash
// harness seals the "dead" process's log at the kill instant so no
// in-flight request can become durable — or acknowledged — afterwards.
func (l *Log) Seal() { l.sealed.Store(true) }

// Append makes one record durable: frame, write, group-commit fsync
// (unless NoSync), then run the post-durability Hook. Callers must not
// acknowledge the operation to the client until Append returns nil.
func (l *Log) Append(shard int, op, key string, body []byte) error {
	rec := Record{Shard: shard, Op: op, Key: key, Body: json.RawMessage(body)}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wal: encoding record: %w", err)
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte cap", len(payload), MaxRecordBytes)
	}
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)

	l.mu.Lock()
	if l.sealed.Load() {
		l.mu.Unlock()
		return ErrSealed
	}
	if _, err := l.f.Write(frame); err != nil {
		l.fsyncFailed.Store(true)
		l.mu.Unlock()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.records++
	l.writeSeq++
	seq := l.writeSeq
	l.mu.Unlock()
	l.appends.Add(1)
	l.bytes.Add(int64(len(frame)))
	if !l.opt.NoSync {
		if err := l.commit(seq); err != nil {
			return err
		}
	}
	// The hook runs outside the file lock: it may seal the log and panic
	// to abort the request (crash emulation) without wedging appends.
	if l.opt.Hook != nil {
		l.opt.Hook(rec)
	}
	return nil
}

// commit makes the frame with the given write sequence durable, by
// group commit: appenders queue on commitMu, and whoever holds it
// flushes everything written so far in one fsync. A caller whose frame
// was covered by an earlier holder's flush returns without touching the
// file — under concurrent load most appends take this path, so one
// flush covers a whole convoy of envelopes.
func (l *Log) commit(seq int64) error {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	if l.syncedSeq >= seq {
		return nil // an earlier leader's flush already covered this frame
	}
	l.mu.Lock()
	target, f := l.writeSeq, l.f
	l.mu.Unlock()
	if err := f.Sync(); err != nil {
		l.fsyncFailed.Store(true)
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.fsyncs.Add(1)
	l.syncedSeq = target
	return nil
}

// ScanResult reports how far a Scan got.
type ScanResult struct {
	Records int64 // intact records decoded
	Valid   int64 // byte length of the valid prefix (header included)
	Damaged bool  // the scan stopped at a corrupt or truncated frame
}

// Scan reads framed records, invoking fn (may be nil) per intact
// record, and stops cleanly at the first damage: truncated frame, bad
// checksum, oversized length, or undecodable payload. Damage is not an
// error — the result reports the salvageable prefix — so recovery can
// keep every operation up to the corruption point. The only error
// returned is one produced by fn, which aborts the scan.
func Scan(r io.Reader, fn func(Record) error) (ScanResult, error) {
	br := bufio.NewReader(r)
	var res ScanResult
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil || string(hdr[:]) != fileMagic {
		res.Damaged = true
		return res, nil
	}
	res.Valid = int64(len(fileMagic))
	for {
		var fh [8]byte
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			res.Damaged = err != io.EOF
			return res, nil
		}
		ln := binary.BigEndian.Uint32(fh[0:4])
		sum := binary.BigEndian.Uint32(fh[4:8])
		if ln == 0 || ln > MaxRecordBytes {
			res.Damaged = true
			return res, nil
		}
		payload := make([]byte, ln)
		if _, err := io.ReadFull(br, payload); err != nil {
			res.Damaged = true
			return res, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			res.Damaged = true
			return res, nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			res.Damaged = true
			return res, nil
		}
		res.Records++
		res.Valid += 8 + int64(ln)
		if fn != nil {
			if err := fn(rec); err != nil {
				return res, err
			}
		}
	}
}

// Recover rebuilds state from the current generation: restore (invoked
// at most once) receives the snapshot file when one exists, then apply
// runs once per intact log record in append order. A corrupt tail ends
// replay cleanly — the stats report how many operations were salvaged —
// and is truncated away so subsequent appends extend a clean log.
// Callers must Recover before the first Append.
func (l *Log) Recover(restore func(io.Reader) error, apply func(Record) error) (RecoverStats, error) {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	var st RecoverStats
	snapPath := filepath.Join(l.dir, snapName(l.gen))
	if sf, err := os.Open(snapPath); err == nil {
		st.SnapshotRestored = true
		rerr := restore(bufio.NewReader(sf))
		sf.Close()
		if rerr != nil {
			return st, fmt.Errorf("wal: restoring %s: %w", snapPath, rerr)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return st, fmt.Errorf("wal: %w", err)
	}
	walPath := filepath.Join(l.dir, walName(l.gen))
	rf, err := os.Open(walPath)
	if err != nil {
		return st, fmt.Errorf("wal: %w", err)
	}
	res, err := Scan(rf, apply)
	rf.Close()
	if err != nil {
		return st, fmt.Errorf("wal: replaying %s: %w", walPath, err)
	}
	st.Replayed = res.Records
	st.Damaged = res.Damaged
	if res.Damaged {
		info, err := l.f.Stat()
		if err != nil {
			return st, fmt.Errorf("wal: %w", err)
		}
		st.DroppedBytes = info.Size() - res.Valid
		if err := l.f.Truncate(res.Valid); err != nil {
			return st, fmt.Errorf("wal: truncating corrupt tail: %w", err)
		}
		if res.Valid == 0 {
			if err := l.writeHeaderLocked(); err != nil {
				return st, err
			}
		}
		if !l.opt.NoSync {
			if err := l.f.Sync(); err != nil {
				return st, fmt.Errorf("wal: %w", err)
			}
			l.fsyncs.Add(1)
		}
	}
	l.records = res.Records
	l.replayed.Store(res.Records)
	l.recoveryNS.Store(time.Since(start).Nanoseconds())
	return st, nil
}

// Snapshot checkpoints the log: write writes the full state (through
// WriteFileAtomic) as the next generation's snapshot, a fresh log file
// starts that generation, and the previous generation's files are
// removed. The caller must quiesce all logged state for the duration —
// every operation is then either inside the snapshot or in the new log,
// never both, so replay after any crash applies each op exactly once.
func (l *Log) Snapshot(write func(io.Writer) error) error {
	// commitMu first: an in-flight group commit must finish against the
	// old file before the rotation swaps it out.
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed.Load() {
		return ErrSealed
	}
	next := l.gen + 1
	if err := WriteFileAtomic(filepath.Join(l.dir, snapName(next)), write); err != nil {
		l.fsyncFailed.Store(true)
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	nf, err := os.OpenFile(filepath.Join(l.dir, walName(next)), os.O_CREATE|os.O_EXCL|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotating: %w", err)
	}
	old, oldGen := l.f, l.gen
	l.f, l.gen, l.records = nf, next, 0
	// Every frame in the old file was flushed before its Append
	// returned (quiesce contract); mark the sequence fully covered so a
	// late commit cannot fsync the fresh file on a stale seq.
	l.syncedSeq = l.writeSeq
	if err := l.writeHeaderLocked(); err != nil {
		// Roll back to the still-intact old generation.
		l.f, l.gen = old, oldGen
		nf.Close()
		l.fsyncFailed.Store(true)
		return err
	}
	if err := syncDir(l.dir); err != nil {
		l.fsyncFailed.Store(true)
	}
	old.Close()
	// Only after the new pair is durable may the old one go.
	_ = os.Remove(filepath.Join(l.dir, walName(oldGen)))
	_ = os.Remove(filepath.Join(l.dir, snapName(oldGen)))
	return nil
}

// Stats returns the log's counter snapshot.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	gen, records := l.gen, l.records
	l.mu.Unlock()
	return Stats{
		Gen:              gen,
		Records:          records,
		Appends:          l.appends.Load(),
		Fsyncs:           l.fsyncs.Load(),
		Bytes:            l.bytes.Load(),
		Replayed:         l.replayed.Load(),
		RecoveryDuration: time.Duration(l.recoveryNS.Load()),
		LastFsyncOK:      !l.fsyncFailed.Load(),
		Sealed:           l.sealed.Load(),
	}
}

// Close syncs and closes the log file. Taking the commit lock first
// waits out any in-flight group commit, so Close never yanks the file
// from under a leader's fsync.
func (l *Log) Close() error {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if !l.opt.NoSync && !l.sealed.Load() {
		_ = l.f.Sync()
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// WriteFileAtomic writes a file so that a crash at any instant leaves
// either the complete old content or the complete new content, never a
// torn mix: the content goes to a temp file, is fsynced, renamed over
// path, and the directory entry is fsynced too.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err == nil {
		err = bw.Flush()
	} else {
		_ = bw.Flush()
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so renames and creations inside it are
// durable. The Sync itself is best effort: some platforms and
// filesystems reject syncing a directory handle (EINVAL), which is not
// an actionable durability failure.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
