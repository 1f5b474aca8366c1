package mrt

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// ErrShortHeader is returned when a stream ends inside a record header
// (a cleanly-ended archive returns io.EOF instead).
var ErrShortHeader = errors.New("mrt: truncated record header")

// bodyPool recycles record-body encode buffers across writers: one dump
// writes thousands of records, and without reuse every record body is a
// fresh allocation.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// Writer writes MRT records to an underlying stream.
type Writer struct {
	w   *bufio.Writer
	buf *[]byte // scratch body buffer, from bodyPool; released on Flush
	err error
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// body returns the writer's scratch buffer, length zero, fetching one
// from the pool on first use after construction or Flush.
func (w *Writer) body() []byte {
	if w.buf == nil {
		w.buf = bodyPool.Get().(*[]byte)
	}
	return (*w.buf)[:0]
}

// keepBody stores the (possibly grown) scratch back on the writer.
func (w *Writer) keepBody(b []byte) { *w.buf = b }

// WriteRecord writes one record with the common MRT header.
func (w *Writer) WriteRecord(ts time.Time, typ, subtype uint16, body []byte) error {
	if w.err != nil {
		return w.err
	}
	var hdr [12]byte
	sec := uint32(ts.Unix())
	hdr[0], hdr[1], hdr[2], hdr[3] = byte(sec>>24), byte(sec>>16), byte(sec>>8), byte(sec)
	hdr[4], hdr[5] = byte(typ>>8), byte(typ)
	hdr[6], hdr[7] = byte(subtype>>8), byte(subtype)
	l := uint32(len(body))
	hdr[8], hdr[9], hdr[10], hdr[11] = byte(l>>24), byte(l>>16), byte(l>>8), byte(l)
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(body); err != nil {
		w.err = err
		return err
	}
	return nil
}

// WritePeerIndexTable marshals and writes t.
func (w *Writer) WritePeerIndexTable(ts time.Time, t *PeerIndexTable) error {
	body, err := appendPeerIndexTable(w.body(), t)
	if err != nil {
		return err
	}
	w.keepBody(body)
	return w.WriteRecord(ts, TypeTableDumpV2, SubtypePeerIndexTable, body)
}

// WriteRIB marshals and writes r, choosing the subtype from the prefix
// address family.
func (w *Writer) WriteRIB(ts time.Time, r *RIBRecord) error {
	body, err := appendRIBRecord(w.body(), r)
	if err != nil {
		return err
	}
	w.keepBody(body)
	sub := uint16(SubtypeRIBIPv4Unicast)
	if r.Prefix.Addr().Is6() {
		sub = SubtypeRIBIPv6Unicast
	}
	return w.WriteRecord(ts, TypeTableDumpV2, sub, body)
}

// WriteBGP4MP marshals and writes m.
func (w *Writer) WriteBGP4MP(ts time.Time, m *BGP4MPMessage) error {
	body, err := appendBGP4MP(w.body(), m)
	if err != nil {
		return err
	}
	w.keepBody(body)
	sub := uint16(SubtypeBGP4MPMessage)
	if m.AS4 {
		sub = SubtypeBGP4MPMessageAS4
	}
	return w.WriteRecord(ts, TypeBGP4MP, sub, body)
}

// Flush flushes buffered records to the underlying writer and returns
// the scratch encode buffer to the pool.
func (w *Writer) Flush() error {
	if w.buf != nil {
		bodyPool.Put(w.buf)
		w.buf = nil
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// reader reads MRT records from a stream.
type reader struct {
	r *bufio.Reader
}

// newReader returns a reader on r.
func newReader(r io.Reader) *reader { return &reader{r: bufio.NewReader(r)} }

// readInto reads the next record into rec, reusing rec.Body's capacity.
// The bulk readers (ReadDump, ReadUpdates) decode each record before
// fetching the next, so one record's worth of body buffer serves a
// whole archive.
func (r *reader) readInto(rec *Record) error {
	var hdr [12]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return ErrShortHeader
	}
	rec.Timestamp = time.Unix(int64(get32(hdr[:])), 0).UTC()
	rec.Type = get16(hdr[4:])
	rec.Subtype = get16(hdr[6:])
	length := int(get32(hdr[8:]))
	const maxRecord = 64 << 20
	if length > maxRecord {
		return fmt.Errorf("mrt: record length %d exceeds %d", length, maxRecord)
	}
	if cap(rec.Body) < length {
		rec.Body = make([]byte, length)
	}
	rec.Body = rec.Body[:length]
	if _, err := io.ReadFull(r.r, rec.Body); err != nil {
		return fmt.Errorf("mrt: truncated record body: %w", err)
	}
	return nil
}

// Dump is the decoded contents of a TABLE_DUMP_V2 archive. It is
// read-only: entries may share one *bgp.PathAttrs (see RIBEntry).
type Dump struct {
	Index *PeerIndexTable
	RIBs  []*RIBRecord
}

// ReadDump decodes a full TABLE_DUMP_V2 archive from r. BGP4MP records
// interleaved in the stream are ignored. Records, entries and decoded
// attributes are slab-allocated from one arena owned by the returned
// Dump, so the whole archive retains a handful of chunk allocations,
// and an entry that repeats its peer's previous attribute bytes shares
// that entry's attributes. A RIB record before the peer index table
// (RFC 6396 §4.3) or an entry naming a peer the table does not hold is
// an error.
func ReadDump(r io.Reader) (*Dump, error) {
	rd := newReader(r)
	d := &Dump{}
	var arena dumpArena
	var rec Record // body buffer reused across records
	for {
		err := rd.readInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if rec.Type != TypeTableDumpV2 {
			continue
		}
		switch rec.Subtype {
		case SubtypePeerIndexTable:
			idx, err := unmarshalPeerIndexTable(rec.Body)
			if err != nil {
				return nil, err
			}
			d.Index = idx
			arena.setPeers(len(idx.Peers))
		case SubtypeRIBIPv4Unicast, SubtypeRIBIPv6Unicast:
			if d.Index == nil {
				return nil, errors.New("mrt: RIB record before the peer index table")
			}
			rib, err := unmarshalRIBRecord(rec.Body, rec.Subtype == SubtypeRIBIPv6Unicast, &arena)
			if err != nil {
				return nil, err
			}
			d.RIBs = append(d.RIBs, rib)
		}
	}
	return d, nil
}

// ReadDumpFile opens path and decodes it with ReadDump.
func ReadDumpFile(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := ReadDump(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// ReadUpdates decodes all BGP4MP message records from r, skipping
// TABLE_DUMP_V2 records.
func ReadUpdates(r io.Reader) ([]*BGP4MPMessage, error) {
	rd := newReader(r)
	var out []*BGP4MPMessage
	var rec Record // body buffer reused across records
	for {
		err := rd.readInto(&rec)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if rec.Type != TypeBGP4MP {
			continue
		}
		switch rec.Subtype {
		case SubtypeBGP4MPMessage, SubtypeBGP4MPMessageAS4:
			m, err := unmarshalBGP4MP(rec.Body, rec.Subtype == SubtypeBGP4MPMessageAS4)
			if err != nil {
				return nil, err
			}
			m.Timestamp = rec.Timestamp
			out = append(out, m)
		}
	}
}

// ReadUpdatesFile opens path and decodes it with ReadUpdates.
func ReadUpdatesFile(path string) ([]*BGP4MPMessage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ms, err := ReadUpdates(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ms, nil
}
