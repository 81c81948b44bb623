package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Disk is the durable storage engine: a write-ahead log plus periodic
// snapshots in one directory, with every read served from an in-memory
// table (the janus-datalog shape — truth on disk, hot path in memory).
//
// # On-disk layout
//
//	dir/wal.log      append-only put records since the last snapshot
//	dir/snapshot     full table state at some point (atomically renamed)
//	dir/snapshot.tmp in-progress snapshot; ignored and removed at open
//
// Every WAL record is uvarint(len(body)) · body · crc32(body), where body
// carries table, key, value and the row's version. Appends go through a
// buffered writer; Flush drains it (and fsyncs when Fsync is set), which
// is the engine's durability point — a record that reached the file before
// a crash is replayed, a torn tail (partial final record, bad CRC) is
// truncated and ignored, never half-applied.
//
// When the WAL grows past SnapshotBytes the engine snapshots: the full
// state is written to snapshot.tmp, fsynced, renamed over snapshot (the
// atomic commit point), and only then is the WAL truncated. A crash
// anywhere in that sequence is safe: before the rename the old snapshot +
// full WAL still reconstruct everything; after the rename but before the
// truncate, replaying the old WAL over the new snapshot is a no-op because
// records only apply when their version is newer than the row's.
//
// Recovery at OpenDisk is snapshot-then-tail: load dir/snapshot if
// present, then replay wal.log on top, tolerating a torn final record.
// Versions travel with the rows, so a recovered store resumes its version
// sequence — the invariant client caches and replicas depend on.
type Disk struct {
	dir  string
	opts DiskOptions

	mu       sync.Mutex // serializes WAL appends, flushes and snapshots
	wal      *os.File
	bw       *bufio.Writer
	walBytes int64  // bytes written to the WAL (buffered + flushed) since its last truncation
	enc      []byte // scratch record-encode buffer, reused across appends
	closed   bool

	tmu    sync.Mutex // guards the tables map (not the tables' rows)
	tables map[string]*diskTable

	stats DiskStats
}

// DiskOptions tunes a Disk engine. The zero value is usable: snapshots
// every 4 MiB of WAL, no fsync (see Fsync).
type DiskOptions struct {
	// SnapshotBytes is the WAL size that triggers a snapshot (and the WAL
	// truncation that pays for it). 0 means the 4 MiB default; negative
	// disables automatic snapshots (the WAL grows until Snapshot is
	// called).
	SnapshotBytes int64

	// Fsync makes Flush fsync the WAL file, surviving machine/kernel
	// crashes at the cost of a disk sync per acknowledged write batch.
	// Off, the durability point is the write into the OS page cache:
	// acknowledged writes survive any process kill (the joinbench and
	// fault-suite scenario), but not a power failure.
	Fsync bool
}

// DiskStats describes a Disk engine's recovery and snapshot activity.
type DiskStats struct {
	RecoveredRows    int   // rows loaded from the snapshot at open
	ReplayedRecords  int   // WAL records applied on top at open
	TornTailBytes    int64 // trailing WAL bytes discarded as torn at open
	Snapshots        int64 // snapshots written since open
	WALBytes         int64 // current WAL size
	WALBytesReplayed int64 // WAL bytes accepted at open
}

const (
	walName     = "wal.log"
	snapName    = "snapshot"
	snapTmpName = "snapshot.tmp"
	snapMagic   = "josnap1\n"
	defaultSnap = 4 << 20
	crcLen      = 4
	maxKVLen    = 1 << 30 // sanity bound on decoded lengths (defends torn uvarints)
)

// walHdrPad is the prefix appendRecord reserves for a record's length
// header; binary.MaxVarintLen64 covers any length.
var walHdrPad [binary.MaxVarintLen64]byte

// OpenDisk opens (creating if needed) a disk engine rooted at dir and
// recovers its durable state: snapshot first, then the WAL tail.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	if opts.SnapshotBytes == 0 {
		opts.SnapshotBytes = defaultSnap
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create data dir: %w", err)
	}
	d := &Disk{dir: dir, opts: opts, tables: make(map[string]*diskTable)}

	// A leftover snapshot.tmp is a snapshot that never reached its rename:
	// the WAL (not yet truncated) still holds everything it would have
	// contained, so the partial file is just noise.
	os.Remove(filepath.Join(dir, snapTmpName))

	if err := d.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := d.replayWAL(); err != nil {
		return nil, err
	}
	return d, nil
}

// Table opens (creating if absent) the named table. Recovered tables are
// returned with their durable rows already in place.
func (d *Disk) Table(name string) (Table, error) {
	return d.table(name), nil
}

func (d *Disk) table(name string) *diskTable {
	d.tmu.Lock()
	defer d.tmu.Unlock()
	t := d.tables[name]
	if t == nil {
		t = &diskTable{rowTable: rowTable{rows: make(map[string]Row)}, eng: d, name: name}
		d.tables[name] = t
	}
	return t
}

// Flush drains buffered WAL records to the file (and fsyncs when
// configured): every Put that returned before Flush is durable once Flush
// returns.
func (d *Disk) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flushLocked()
}

func (d *Disk) flushLocked() error {
	if d.closed {
		return errClosed
	}
	if err := d.bw.Flush(); err != nil {
		return fmt.Errorf("storage: wal flush: %w", err)
	}
	if d.opts.Fsync {
		if err := d.wal.Sync(); err != nil {
			return fmt.Errorf("storage: wal fsync: %w", err)
		}
	}
	return nil
}

// Snapshot forces a snapshot + WAL truncation now, regardless of WAL size.
func (d *Disk) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	return d.snapshotLocked()
}

// Close flushes and releases the engine; the directory can be reopened.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	err := d.flushLocked()
	d.closed = true
	if cerr := d.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns a copy of the engine's recovery/snapshot counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.WALBytes = d.walBytes
	return s
}

var errClosed = errors.New("storage: engine closed")

// --- Per-table handle -------------------------------------------------------

// diskTable is the row table plus the WAL: only Put and PutAt differ, each
// appending its record after the row is applied.
type diskTable struct {
	rowTable
	eng  *Disk
	name string
}

// Put applies the write to the in-memory table first, then appends its WAL
// record. The memtable-first order is what makes concurrent snapshots
// safe: a snapshot (which blocks WAL appends) can only ever see a row that
// is also headed for the WAL — and a replayed record that the snapshot
// already included is skipped by its version.
func (t *diskTable) Put(key string, value []byte) (int64, error) {
	v := append([]byte(nil), value...)
	ver := t.put(key, v)
	if err := t.eng.appendRecord(t.name, key, v, ver); err != nil {
		return 0, err
	}
	return ver, nil
}

// PutAt applies a replicated row at an explicit version, set-if-newer, and
// WAL-logs it only when applied — a stale replay costs no log growth. The
// same memtable-first order as Put keeps concurrent snapshots consistent.
func (t *diskTable) PutAt(key string, value []byte, version int64) (bool, error) {
	v := append([]byte(nil), value...)
	if !t.setIfNewer(key, v, version) {
		return false, nil
	}
	if err := t.eng.appendRecord(t.name, key, v, version); err != nil {
		return true, err // visible in memory, never logged: maybe-committed
	}
	return true, nil
}

// --- WAL --------------------------------------------------------------------

// appendRecord encodes and buffers one put record, triggering a snapshot
// when the WAL has grown past the threshold. Durability comes later, at
// Flush.
func (d *Disk) appendRecord(table, key string, value []byte, version int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	// The record is framed in place: the body is encoded after a reserved
	// prefix, its length header written right-aligned into that prefix and
	// its CRC appended, so one Write sends it and nothing escapes per put.
	b := append(d.enc[:0], walHdrPad[:]...)
	b = binary.AppendUvarint(b, uint64(len(table)))
	b = append(b, table...)
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = appendBlob(b, value)
	b = binary.AppendUvarint(b, uint64(version))
	body := b[len(walHdrPad):]
	var hdr [len(walHdrPad)]byte
	n := binary.PutUvarint(hdr[:], uint64(len(body)))
	off := len(walHdrPad) - n
	copy(b[off:], hdr[:n])
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
	d.enc = b // keep the grown capacity

	if _, err := d.bw.Write(b[off:]); err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	d.walBytes += int64(len(b) - off)
	if d.opts.SnapshotBytes > 0 && d.walBytes >= d.opts.SnapshotBytes {
		return d.snapshotLocked()
	}
	return nil
}

// appendBlob mirrors the wire protocol's nil-preserving blob encoding:
// uvarint 0 for nil, else uvarint(len+1) followed by the bytes.
func appendBlob(b, v []byte) []byte {
	if v == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(v))+1)
	return append(b, v...)
}

// replayWAL opens dir/wal.log, applies every intact record on top of the
// snapshot-loaded state, truncates any torn tail, and leaves the file
// positioned for appends.
func (d *Disk) replayWAL() error {
	path := filepath.Join(d.dir, walName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: open wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("storage: stat wal: %w", err)
	}
	size := info.Size()

	br := bufio.NewReaderSize(f, 64<<10)
	var off int64 // offset of the next unread record
	for {
		rec, n, err := readRecord(br, size-off)
		if err == io.EOF {
			break // clean end of log
		}
		if err != nil {
			// Torn tail: a crash mid-append left a partial or corrupt
			// final record. Everything before it is intact; everything
			// from it on was never acknowledged as durable. Drop it.
			d.stats.TornTailBytes = size - off
			break
		}
		tbl := d.table(rec.table)
		if tbl.setIfNewer(rec.key, rec.value, rec.version) {
			d.stats.ReplayedRecords++
		}
		off += n
	}

	// Truncate the torn tail (if any) so appends continue from the last
	// intact record, then hand the file to the append path.
	if err := f.Truncate(off); err != nil {
		f.Close()
		return fmt.Errorf("storage: truncate torn wal tail: %w", err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("storage: seek wal: %w", err)
	}
	d.wal = f
	d.bw = bufio.NewWriterSize(f, 64<<10)
	d.walBytes = off
	d.stats.WALBytesReplayed = off
	return nil
}

type walRecord struct {
	table, key string
	value      []byte
	version    int64
}

// errTorn marks any defect that means "the log ends here": short reads,
// implausible lengths, CRC mismatches.
var errTorn = errors.New("storage: torn wal record")

// readRecord decodes one WAL record from br, with at most remain bytes
// left in the file. io.EOF means a clean end exactly at a record boundary;
// errTorn (or any other error) means the tail from here is unusable. n is
// the record's full on-disk size.
func readRecord(br *bufio.Reader, remain int64) (walRecord, int64, error) {
	var rec walRecord
	if remain == 0 {
		return rec, 0, io.EOF
	}
	bodyLen, hdrN, err := readUvarint(br)
	if err != nil {
		return rec, 0, errTorn // includes a clean EOF mid-varint: torn
	}
	if bodyLen > maxKVLen || int64(bodyLen) > remain-int64(hdrN)-crcLen {
		return rec, 0, errTorn // length field promises more than the file holds
	}
	buf := make([]byte, bodyLen+crcLen)
	if _, err := io.ReadFull(br, buf); err != nil {
		return rec, 0, errTorn
	}
	body, crc := buf[:bodyLen], buf[bodyLen:]
	if binary.LittleEndian.Uint32(crc) != crc32.ChecksumIEEE(body) {
		return rec, 0, errTorn
	}

	rd := byteReader{b: body}
	rec.table = string(rd.bytes(rd.uvarint()))
	rec.key = string(rd.bytes(rd.uvarint()))
	if blen := rd.uvarint(); blen > 0 {
		rec.value = append([]byte(nil), rd.bytes(blen-1)...)
	}
	rec.version = int64(rd.uvarint())
	if rd.bad {
		return rec, 0, errTorn // CRC passed but the body doesn't parse: corrupt
	}
	return rec, int64(hdrN) + int64(bodyLen) + crcLen, nil
}

// readUvarint is binary.ReadUvarint plus a count of the bytes consumed.
func readUvarint(br *bufio.Reader) (v uint64, n int, err error) {
	for shift := uint(0); ; shift += 7 {
		b, err := br.ReadByte()
		if err != nil {
			return 0, n, err
		}
		n++
		if shift >= 64 {
			return 0, n, errTorn
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, n, nil
		}
	}
}

// byteReader is a tiny bounds-checked cursor over a record body; any
// overrun sets bad instead of panicking, so corrupt bodies degrade to
// errTorn.
type byteReader struct {
	b   []byte
	off int
	bad bool
}

func (r *byteReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || v > maxKVLen+1 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) bytes(n uint64) []byte {
	if r.bad || uint64(len(r.b)-r.off) < n {
		r.bad = true
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// --- Snapshots --------------------------------------------------------------

// snapshotLocked writes a full-state snapshot and then truncates the WAL.
// Called with d.mu held, which blocks WAL appends (but not memtable
// updates — see diskTable.Put for why that is safe) for the duration; with
// the default 4 MiB cadence that pause is rare and bounded by the data
// size, the deliberate simplicity trade-off of this engine.
func (d *Disk) snapshotLocked() error {
	if err := d.writeSnapshotLocked(); err != nil {
		return err
	}
	return d.truncateWALLocked()
}

// writeSnapshotLocked writes snapshot.tmp and renames it over snapshot:
// the rename is the commit point, and until it happens the old snapshot +
// untruncated WAL remain a complete recovery source.
func (d *Disk) writeSnapshotLocked() error {
	tmp := filepath.Join(d.dir, snapTmpName)
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: snapshot: %w", err)
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(f, crc), 64<<10)

	if _, err := f.WriteString(snapMagic); err == nil {
		err = d.writeSnapshotBody(bw)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		var sum [crcLen]byte
		binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
		_, err = f.Write(sum[:])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: snapshot rename: %w", err)
	}
	syncDir(d.dir) // best effort: persist the rename itself
	d.stats.Snapshots++
	return nil
}

// writeSnapshotBody serializes every table's durable rows (seeds, at
// version 0, are the caller's to re-provide and are skipped).
func (d *Disk) writeSnapshotBody(w *bufio.Writer) error {
	d.tmu.Lock()
	tables := make([]*diskTable, 0, len(d.tables))
	for _, t := range d.tables {
		tables = append(tables, t)
	}
	d.tmu.Unlock()

	var scratch []byte
	writeUvarint := func(v uint64) error {
		scratch = binary.AppendUvarint(scratch[:0], v)
		_, err := w.Write(scratch)
		return err
	}
	if err := writeUvarint(uint64(len(tables))); err != nil {
		return err
	}
	for _, t := range tables {
		if err := writeUvarint(uint64(len(t.name))); err != nil {
			return err
		}
		if _, err := w.WriteString(t.name); err != nil {
			return err
		}
		t.mu.RLock()
		durable := 0
		for _, r := range t.rows {
			if r.Version > 0 {
				durable++
			}
		}
		err := writeUvarint(uint64(durable))
		for k, r := range t.rows {
			if err != nil {
				break
			}
			if r.Version == 0 {
				continue
			}
			if err = writeUvarint(uint64(len(k))); err == nil {
				if _, err = w.WriteString(k); err == nil {
					scratch = appendBlob(scratch[:0], r.Value)
					if _, err = w.Write(scratch); err == nil {
						err = writeUvarint(uint64(r.Version))
					}
				}
			}
		}
		t.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// truncateWALLocked resets the WAL after a snapshot has landed: everything
// it recorded is now in the snapshot (or, for puts racing the snapshot,
// will be re-appended to the fresh log by their own appendRecord).
func (d *Disk) truncateWALLocked() error {
	if err := d.bw.Flush(); err != nil { // drop nothing silently
		return fmt.Errorf("storage: wal flush before truncate: %w", err)
	}
	if err := d.wal.Truncate(0); err != nil {
		return fmt.Errorf("storage: wal truncate: %w", err)
	}
	if _, err := d.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("storage: wal seek: %w", err)
	}
	d.bw.Reset(d.wal)
	d.walBytes = 0
	return nil
}

// loadSnapshot reads dir/snapshot into fresh tables; a missing file is an
// empty store. The file was fsynced and atomically renamed by its writer,
// so it is either absent or complete — a corrupt one is a hard error, not
// a silent empty recovery.
func (d *Disk) loadSnapshot() error {
	raw, err := os.ReadFile(filepath.Join(d.dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: read snapshot: %w", err)
	}
	if len(raw) < len(snapMagic)+crcLen || string(raw[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("storage: snapshot: bad header")
	}
	body := raw[len(snapMagic) : len(raw)-crcLen]
	want := binary.LittleEndian.Uint32(raw[len(raw)-crcLen:])
	if crc32.ChecksumIEEE(body) != want {
		return fmt.Errorf("storage: snapshot: checksum mismatch")
	}

	rd := byteReader{b: body}
	ntables := rd.uvarint()
	for i := uint64(0); i < ntables && !rd.bad; i++ {
		name := string(rd.bytes(rd.uvarint()))
		nrows := rd.uvarint()
		if rd.bad {
			break
		}
		t := d.table(name)
		for j := uint64(0); j < nrows && !rd.bad; j++ {
			key := string(rd.bytes(rd.uvarint()))
			var val []byte
			if blen := rd.uvarint(); blen > 0 {
				val = append([]byte(nil), rd.bytes(blen-1)...)
			}
			ver := int64(rd.uvarint())
			if rd.bad {
				break
			}
			t.rows[key] = Row{Value: val, Version: ver}
			d.stats.RecoveredRows++
		}
	}
	if rd.bad {
		return fmt.Errorf("storage: snapshot: corrupt body")
	}
	return nil
}

// syncDir fsyncs a directory so a just-committed rename survives a power
// cut; errors are ignored (some filesystems refuse directory syncs).
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}
