package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/urbancivics/goflow/internal/fsys"
)

// Segment files. The log is a directory of fixed-prefix files named
// by the first LSN they hold ("%016x.wal"), so listing the directory
// and sorting the names recovers the segment order without reading a
// byte. Exactly one segment — the one with the highest first LSN — is
// active for appends; the rest are sealed and immutable until a
// checkpoint truncates them.

const segmentSuffix = ".wal"

// segmentName formats the file name of a segment starting at firstLSN.
func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("%016x%s", firstLSN, segmentSuffix)
}

// parseSegmentName extracts the first LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(name, segmentSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segInfo describes one sealed segment on disk.
type segInfo struct {
	firstLSN uint64
	path     string
	size     int64
}

// listSegments returns the directory's segment files sorted by first
// LSN. Foreign files are ignored.
func listSegments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var segs []segInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		first, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: stat %s: %w", e.Name(), err)
		}
		segs = append(segs, segInfo{firstLSN: first, path: filepath.Join(dir, e.Name()), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// segment is the active (append) segment.
type segment struct {
	path     string
	firstLSN uint64
	file     *os.File
	w        io.Writer // file, or the fault-injection wrapper around it
	size     int64
}

// createSegment creates a fresh segment file and makes its directory
// entry durable, so a crash right after rotation cannot lose the file
// itself.
func createSegment(dir string, firstLSN uint64, wrap func(io.Writer) io.Writer) (*segment, error) {
	path := filepath.Join(dir, segmentName(firstLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return newSegment(path, firstLSN, f, 0, wrap), nil
}

// openSegmentAt opens an existing segment file for appending; the
// caller has already truncated any torn tail, so writes continue at
// the end of the file.
func openSegmentAt(path string, firstLSN uint64, size int64, wrap func(io.Writer) io.Writer) (*segment, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	return newSegment(path, firstLSN, f, size, wrap), nil
}

func newSegment(path string, firstLSN uint64, f *os.File, size int64, wrap func(io.Writer) io.Writer) *segment {
	s := &segment{path: path, firstLSN: firstLSN, file: f, size: size}
	s.w = io.Writer(f)
	if wrap != nil {
		s.w = wrap(f)
	}
	return s
}

// sync makes the segment's contents durable.
func (s *segment) sync() error { return s.file.Sync() }

// close closes the underlying file.
func (s *segment) close() error { return s.file.Close() }

// info returns the segment's sealed-segment descriptor.
func (s *segment) info() segInfo {
	return segInfo{firstLSN: s.firstLSN, path: s.path, size: s.size}
}
