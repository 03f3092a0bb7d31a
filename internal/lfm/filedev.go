package lfm

import (
	"fmt"
	"os"
)

// File-backed device support. The paper's LFM "stores long fields
// directly in an operating system disk device (not a file system)"; the
// in-memory Manager simulates that device, and this variant backs the
// same byte space with a real file so databases survive process restarts
// and so I/O actually hits the OS. Page accounting is identical.

// FileDevice adapts an os.File to the Manager's backing store.
type FileDevice struct {
	f        *os.File
	capacity uint64
}

// OpenFileDevice creates (or truncates) a device file of the given
// capacity in bytes.
func OpenFileDevice(path string, capacity uint64) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lfm: open device: %w", err)
	}
	if err := f.Truncate(int64(capacity)); err != nil {
		f.Close()
		return nil, fmt.Errorf("lfm: size device: %w", err)
	}
	return &FileDevice{f: f, capacity: capacity}, nil
}

// Close releases the underlying file.
func (d *FileDevice) Close() error { return d.f.Close() }

// NewFileBacked creates a Manager whose device is the given file. The
// capacity is rounded up to a power-of-two multiple of pageSize exactly
// as New does; the file is grown to match. The manager takes ownership
// of dev on success — Manager.Close releases it — and closes it itself
// on error, so the caller never needs to.
func NewFileBacked(dev *FileDevice, pageSize int) (*Manager, error) {
	m, err := New(dev.capacity, pageSize)
	if err != nil {
		dev.Close()
		return nil, err
	}
	if err := dev.f.Truncate(int64(m.capacity)); err != nil {
		dev.Close()
		return nil, fmt.Errorf("lfm: grow device: %w", err)
	}
	m.file = dev.f
	//lint:ignore lockguard m was just built by New and is not yet shared with any other goroutine
	m.fdev = dev
	return m, nil
}
