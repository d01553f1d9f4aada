// Package arch defines the simulated x86-64 architectural vocabulary shared
// by the PVM simulator: address types, page geometry, privilege rings,
// VMX operating modes, PCID/VPID identifier spaces, and the catalogue of
// privileged operations whose virtualization the paper measures.
package arch

import "fmt"

// Page geometry: 4 KiB pages, 9 index bits per level, 4-level radix tables
// (PML4 → PDPT → PD → PT), as on x86-64 with 48-bit virtual addresses.
const (
	PageShift       = 12
	PageSize        = 1 << PageShift
	IndexBits       = 9
	EntriesPerTable = 1 << IndexBits
	PTLevels        = 4
	VABits          = PTLevels*IndexBits + PageShift // 48
)

// VA is a virtual address. The layer it belongs to (L2 guest virtual,
// L1 guest virtual, host virtual) is determined by context.
type VA uint64

// PFN is a page frame number. As with VA, the physical layer (L2 guest
// physical, L1 guest physical, host physical) is contextual.
type PFN uint64

// Addr returns the base address of the frame.
func (p PFN) Addr() uint64 { return uint64(p) << PageShift }

// PageDown rounds the address down to its page base.
func (v VA) PageDown() VA { return v &^ (PageSize - 1) }

// PageUp rounds the address up to the next page boundary.
func (v VA) PageUp() VA { return (v + PageSize - 1) &^ (PageSize - 1) }

// Offset returns the intra-page offset.
func (v VA) Offset() uint64 { return uint64(v) & (PageSize - 1) }

// PageNumber returns the virtual page number.
func (v VA) PageNumber() uint64 { return uint64(v) >> PageShift }

// Index returns the radix index of v at the given level. Level PTLevels
// is the root (PML4); level 1 indexes the leaf page table.
func (v VA) Index(level int) int {
	if uint(level-1) >= PTLevels {
		panic(badLevel(level))
	}
	shift := PageShift + IndexBits*(level-1)
	return int((uint64(v) >> shift) & (EntriesPerTable - 1))
}

// badLevel is the panic value for an out-of-range level.
type badLevel int

func (l badLevel) Error() string { return fmt.Sprintf("arch: bad page-table level %d", int(l)) }

// Canonical reports whether the address fits the simulated 48-bit space.
func (v VA) Canonical() bool { return uint64(v)>>VABits == 0 }

// KernelSpaceStart splits the 48-bit space in half: addresses at or above it
// belong to the (guest) kernel, mirroring the upper-half kernel convention.
const KernelSpaceStart VA = 1 << (VABits - 1)

// IsKernel reports whether the address lies in the kernel half.
func (v VA) IsKernel() bool { return v >= KernelSpaceStart }

// SwitcherBase is the identical virtual address at which the PVM switcher's
// per-CPU entry area is mapped into the L1 hypervisor, L2 guest kernel, and
// L2 guest user address spaces (one PUD-sized, unused range near the top).
const SwitcherBase VA = KernelSpaceStart + (1 << 39) // one PUD above the split

// SwitcherSize is one PUD (512 GiB of VA space reserved; only a few pages
// are populated).
const SwitcherSize = 1 << 39

// Ring is a hardware privilege level.
type Ring uint8

const (
	Ring0 Ring = 0
	Ring3 Ring = 3
)

func (r Ring) String() string { return fmt.Sprintf("ring%d", r) }

// VirtRing is the *virtual* ring PVM simulates for a de-privileged guest:
// the guest kernel runs in v_ring0 and guest user in v_ring3, both at
// hardware Ring3.
type VirtRing uint8

const (
	VRing0 VirtRing = 0 // guest kernel
	VRing3 VirtRing = 3 // guest user
)

func (r VirtRing) String() string { return fmt.Sprintf("v_ring%d", r) }

// Mode is the VMX operating mode.
type Mode uint8

const (
	RootMode    Mode = iota // host hypervisor
	NonRootMode             // guests (and guest hypervisors)
)

func (m Mode) String() string {
	if m == RootMode {
		return "root"
	}
	return "non-root"
}

// PCID is a process-context identifier tagging TLB entries. x86 provides
// 4096; PVM's PCID-mapping optimization assigns L1's unused values 32–63 to
// L2 guest address spaces.
type PCID uint16

// MaxPCID bounds the simulated PCID space.
const MaxPCID PCID = 4096

// PVM's PCID-mapping windows (Section 3.3.2): guest kernel (v_ring0) shadow
// address spaces receive PCIDs 32–47, guest user (v_ring3) 48–63.
const (
	PVMKernelPCIDBase PCID = 32
	PVMKernelPCIDLen       = 16
	PVMUserPCIDBase   PCID = 48
	PVMUserPCIDLen         = 16
)

// VPID is the per-virtual-processor TLB tag used by hardware virtualization.
type VPID uint16

// PrivOp enumerates the privileged guest operations used by the paper's
// microbenchmarks (Table 1) plus the instructions PVM routes via hypercalls.
type PrivOp uint8

const (
	OpHypercall PrivOp = iota // no-op hypercall
	OpException               // invalid-opcode exception
	OpMSRAccess               // read/write MSR_CORE_PERF_GLOBAL_CTRL
	OpCPUID                   // CPUID
	OpPIO                     // port-mapped I/O
	OpHLT                     // HLT (idle)
	OpIret                    // iret (hypercall-accelerated in PVM)
	OpWriteCR3                // address-space switch
	numPrivOps
)

var privOpNames = [numPrivOps]string{
	"hypercall", "exception", "msr", "cpuid", "pio", "hlt", "iret", "wrcr3",
}

func (op PrivOp) String() string {
	if int(op) < len(privOpNames) {
		return privOpNames[op]
	}
	return fmt.Sprintf("privop(%d)", uint8(op))
}

// HypercallNR identifies PVM paravirtual hypercalls. The production system
// exposes 22 frequently used privileged operations as hypercalls; the
// simulator names the ones its workloads exercise and reserves the rest.
type HypercallNR uint16

const (
	HCNop HypercallNR = iota
	HCSysret
	HCIret
	HCWrMSR
	HCRdMSR
	HCLoadCR3
	HCFlushTLB
	HCFlushTLBPage
	HCHalt
	HCWakeup
	HCSetIDTEntry
	HCLoadGS
	HCLoadTLS
	HCIOPort
	HCAPICWrite
	HCAPICRead
	HCSetPTE
	HCReleasePT
	HCClockRead
	HCSchedYield
	HCEventChannel
	HCDebug
	NumHypercalls // == 22, the paper's count
)

var hypercallNames = [NumHypercalls]string{
	"nop", "sysret", "iret", "wrmsr", "rdmsr", "load_cr3", "flush_tlb",
	"flush_tlb_page", "halt", "wakeup", "set_idt_entry", "load_gs",
	"load_tls", "io_port", "apic_write", "apic_read", "set_pte",
	"release_pt", "clock_read", "sched_yield", "event_channel", "debug",
}

func (h HypercallNR) String() string {
	if int(h) < len(hypercallNames) {
		return hypercallNames[h]
	}
	return fmt.Sprintf("hypercall(%d)", uint16(h))
}

// Registers models the slice of per-vCPU architectural state the simulator
// cares about.
type Registers struct {
	CR3      PFN  // current page-table root
	PCIDVal  PCID // active PCID
	LSTAR    VA   // syscall entry point (MSR_LSTAR)
	IDTR     VA   // interrupt descriptor table base
	FlagsIF  bool // RFLAGS.IF: interrupts enabled
	Ring     Ring // current hardware ring
	VirtRing VirtRing
	Mode     Mode
}

// GPRCount is the number of general-purpose registers the switcher must
// scrub on VM exit (all except RSP and RAX are cleared; §3.2).
const GPRCount = 16

// ScrubbedGPRs is how many of them PVM clears during a VM exit.
const ScrubbedGPRs = GPRCount - 2
