package core

import (
	"fmt"

	"relaxfault/internal/ecc"
)

// Read copies len(buf) bytes starting at physical address pa, crossing
// cacheline boundaries as needed. It returns the worst ECC status observed.
func (c *Controller) Read(pa uint64, buf []byte) (ecc.Status, error) {
	worst := ecc.OK
	lineBytes := uint64(c.cfg.Geometry.LineBytes)
	if pa+uint64(len(buf)) > c.cfg.Geometry.NodeDataBytes() {
		return ecc.DUE, fmt.Errorf("core: read of %d bytes at %#x exceeds node capacity", len(buf), pa)
	}
	for len(buf) > 0 {
		la, off := c.mapper.PhysToLine(pa)
		n := int(lineBytes) - off
		if n > len(buf) {
			n = len(buf)
		}
		data, st, err := c.ReadLine(la)
		if err != nil {
			return ecc.DUE, err
		}
		if st > worst {
			worst = st
		}
		copy(buf[:n], data[off:off+n])
		buf = buf[n:]
		pa += uint64(n)
	}
	return worst, nil
}

// Write stores data starting at physical address pa. Partial-line writes
// read-modify-write through the LLC.
func (c *Controller) Write(pa uint64, data []byte) (ecc.Status, error) {
	worst := ecc.OK
	lineBytes := uint64(c.cfg.Geometry.LineBytes)
	if pa+uint64(len(data)) > c.cfg.Geometry.NodeDataBytes() {
		return ecc.DUE, fmt.Errorf("core: write of %d bytes at %#x exceeds node capacity", len(data), pa)
	}
	for len(data) > 0 {
		la, off := c.mapper.PhysToLine(pa)
		n := int(lineBytes) - off
		if n > len(data) {
			n = len(data)
		}
		var line []byte
		if off == 0 && n == int(lineBytes) {
			line = data[:n]
		} else {
			full, st, err := c.ReadLine(la)
			if err != nil {
				return ecc.DUE, err
			}
			if st > worst {
				worst = st
			}
			copy(full[off:off+n], data[:n])
			line = full
		}
		if err := c.WriteLine(la, line); err != nil {
			return ecc.DUE, err
		}
		data = data[n:]
		pa += uint64(n)
	}
	return worst, nil
}
