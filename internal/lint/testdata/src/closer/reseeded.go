// Re-seeded from commit 2f83dcd: two of the leaks that the next commit,
// bfe28b3, fixed when closer first ran over the tree. newManager is
// internal/qbism/system.go's New, cut to its device set-up: every return
// after OpenFileDevice left the device file open. dialNodes is
// internal/qbism/shards.go's NewClusterSystem, cut to its node loop:
// each dialed transport went into a transportNode that nothing closed.
// The lfm types are that commit's, reduced to what the leak needs. go
// vet passes both, and the tests of the day passed with them.
package closer

import "os"

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
		return nil, err
	}
	return &FileDevice{f: f, capacity: capacity}, nil
}

// Close releases the underlying file.
func (d *FileDevice) Close() error { return d.f.Close() }

// Manager is the long-field manager; at 2f83dcd it had no Close.
type Manager struct {
	file      *os.File
	checksums bool
}

// NewFileBacked takes the device's file, not the device.
func NewFileBacked(dev *FileDevice, pageSize int) (*Manager, error) {
	m := &Manager{}
	if err := dev.f.Truncate(int64(dev.capacity)); err != nil {
		return nil, err
	}
	m.file = dev.f
	return m, nil
}

func newInMemory(capacity uint64) (*Manager, error) { return &Manager{}, nil }

func (m *Manager) EnableChecksums() error { m.checksums = true; return nil }

// DeviceConfig is the part of qbism.Config the set-up reads.
type DeviceConfig struct {
	DevicePath  string
	DeviceBytes uint64
	Checksums   bool
}

func newManager(cfg DeviceConfig) (*Manager, error) {
	var mgr *Manager
	var err error
	if cfg.DevicePath != "" {
		dev, derr := OpenFileDevice(cfg.DevicePath, cfg.DeviceBytes)
		if derr != nil {
			return nil, derr
		}
		mgr, err = NewFileBacked(dev, 4096)
	} else {
		mgr, err = newInMemory(cfg.DeviceBytes)
	}
	if err != nil {
		return nil, err // want "FileDevice from OpenFileDevice .* is not closed on this return path"
	}
	if cfg.Checksums {
		if cerr := mgr.EnableChecksums(); cerr != nil {
			return nil, cerr // want "FileDevice from OpenFileDevice .* is not closed on this return path"
		}
	}
	return mgr, nil // want "FileDevice from OpenFileDevice .* is not closed on this return path"
}

// Transport is transport.Transport, reduced to a call and its release.
type Transport interface {
	Call(method string, request []byte) ([]byte, error)
	Close() error
}

// transportNode adapts one node's Transport to the cluster; none of its
// methods closes t.
type transportNode struct {
	name string
	t    Transport
}

func (n *transportNode) Name() string { return n.name }

func (n *transportNode) Call(method string, request []byte) ([]byte, error) {
	return n.t.Call(method, request)
}

func dialNodes(replicas int, local Transport, dial func(r int) (Transport, error)) ([]*transportNode, error) {
	var nodes []*transportNode
	for r := 0; r <= replicas; r++ {
		tr := local
		if dial != nil {
			var err error
			if tr, err = dial(r); err != nil {
				return nil, err
			}
		}
		nodes = append(nodes, &transportNode{name: "node", t: tr}) // want "stored in transportNode.t, but no transportNode method closes that field"
	}
	return nodes, nil
}
