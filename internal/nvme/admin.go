package nvme

import (
	"encoding/binary"
	"fmt"

	"camsim/internal/sim"
)

// Admin command set opcodes (spec values).
const (
	AdminDeleteIOSQ Opcode = 0x00
	AdminCreateIOSQ Opcode = 0x01
	AdminDeleteIOCQ Opcode = 0x04
	AdminCreateIOCQ Opcode = 0x05
	AdminIdentify   Opcode = 0x06
)

// AdminOpName names an admin opcode (the NVM-command String method covers
// only the I/O set).
func AdminOpName(op Opcode) string {
	switch op {
	case AdminDeleteIOSQ:
		return "DeleteIOSQ"
	case AdminCreateIOSQ:
		return "CreateIOSQ"
	case AdminDeleteIOCQ:
		return "DeleteIOCQ"
	case AdminCreateIOCQ:
		return "CreateIOCQ"
	case AdminIdentify:
		return "Identify"
	default:
		return fmt.Sprintf("Admin(%#x)", uint8(op))
	}
}

// AdminSQE is an admin submission entry. The spec packs queue parameters
// into CDW10/11; this model carries them as named fields with the same
// information content.
//
// For CreateIOSQ/CreateIOCQ: QID names the queue, QSize its depth, and
// PRP1 the host (or GPU) physical address of the ring memory.
// For Identify: PRP1 points at a 4 KiB buffer that receives the controller
// data structure.
type AdminSQE struct {
	Opcode Opcode
	CID    uint16
	PRP1   uint64
	QID    uint16
	QSize  uint16
	// CQID links a new submission queue to its completion queue.
	CQID uint16
}

// AdminSQESize is the admin entry encoding size (64 B, like NVM entries).
const AdminSQESize = 64

// Marshal encodes the entry.
func (a *AdminSQE) Marshal(dst []byte) {
	_ = dst[AdminSQESize-1]
	for i := range dst[:AdminSQESize] {
		dst[i] = 0
	}
	dst[0] = byte(a.Opcode)
	binary.LittleEndian.PutUint16(dst[2:], a.CID)
	binary.LittleEndian.PutUint64(dst[24:], a.PRP1)
	binary.LittleEndian.PutUint16(dst[40:], a.QID)   // CDW10 low
	binary.LittleEndian.PutUint16(dst[42:], a.QSize) // CDW10 high
	binary.LittleEndian.PutUint16(dst[44:], a.CQID)  // CDW11 low
}

// UnmarshalAdminSQE decodes an entry.
func UnmarshalAdminSQE(src []byte) AdminSQE {
	_ = src[AdminSQESize-1]
	return AdminSQE{
		Opcode: Opcode(src[0]),
		CID:    binary.LittleEndian.Uint16(src[2:]),
		PRP1:   binary.LittleEndian.Uint64(src[24:]),
		QID:    binary.LittleEndian.Uint16(src[40:]),
		QSize:  binary.LittleEndian.Uint16(src[42:]),
		CQID:   binary.LittleEndian.Uint16(src[44:]),
	}
}

// Admin status codes (collapsed).
const (
	StatusInvalidQID Status = 16 + iota
	StatusQIDInUse
	StatusInvalidQSize
)

// IdentifyData is the controller data structure returned by Identify,
// encoded into the caller's 4 KiB buffer. Field offsets are chosen for
// this model (the real structure is 4 KiB with dozens of fields).
type IdentifyData struct {
	Serial       string // ≤20 bytes
	Model        string // ≤40 bytes
	CapacityLBAs uint64
	MDTSBytes    uint32
	MaxQueues    uint16
}

// identifyBufBytes is the Identify transfer size (4 KiB, as in the spec).
const identifyBufBytes = 4096

// Marshal encodes the structure into a 4 KiB identify buffer.
func (d *IdentifyData) Marshal(dst []byte) {
	_ = dst[identifyBufBytes-1]
	for i := range dst[:identifyBufBytes] {
		dst[i] = 0
	}
	copy(dst[0:20], d.Serial)
	copy(dst[20:60], d.Model)
	binary.LittleEndian.PutUint64(dst[64:], d.CapacityLBAs)
	binary.LittleEndian.PutUint32(dst[72:], d.MDTSBytes)
	binary.LittleEndian.PutUint16(dst[76:], d.MaxQueues)
}

// UnmarshalIdentify decodes an identify buffer.
func UnmarshalIdentify(src []byte) IdentifyData {
	_ = src[identifyBufBytes-1]
	return IdentifyData{
		Serial:       cstr(src[0:20]),
		Model:        cstr(src[20:60]),
		CapacityLBAs: binary.LittleEndian.Uint64(src[64:]),
		MDTSBytes:    binary.LittleEndian.Uint32(src[72:]),
		MaxQueues:    binary.LittleEndian.Uint16(src[76:]),
	}
}

func cstr(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// AdminSQ is the admin submission ring: SQ's mechanics over admin entries.
type AdminSQ = subRing[AdminSQE, *AdminSQE]

// NewAdminSQ creates an admin submission ring over memory
// (len = depth*AdminSQESize).
func NewAdminSQ(e *sim.Engine, name string, memory []byte, depth uint32) *AdminSQ {
	return newSubRing[AdminSQE, *AdminSQE](e, "AdminSQ", name+".asqdb", memory, depth, AdminSQESize)
}
