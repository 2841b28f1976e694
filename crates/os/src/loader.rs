//! The boot loader: builds a complete bootable system in physical memory.
//!
//! Plays the role of the VAX console + VMB: assembles the kernel and the
//! user programs, lays out page tables, PCBs, stacks and process images
//! in physical memory, pokes the kernel's process table, and leaves the
//! machine ready to run at `kstart`. Everything it does is data placement
//! — no behaviour is implemented host-side.
//!
//! Physical layout:
//!
//! ```text
//! 0x0000_0000  SCB page (vectors written by the kernel at boot)
//! 0x0000_2000  kernel image (linked at 0x8000_2000)
//! 0x0004_0000  system page table (identity map of visible memory)
//! 0x0006_0000  bump allocator: process frames, page tables, stacks, PCBs
//! ```

use crate::kernel::{self, KernelOptions};
use crate::{KERNEL_BASE_VA, MAX_PROCS, SYSTEM_VA, USER_BASE_VA, USER_STACK_PAGES, USER_STACK_TOP};
use atum_arch::{CpuMode, PageProt, PrivReg, Psl, Pte, PAGE_SIZE};
use atum_asm::Image;
use atum_machine::{Machine, MemLayout};
use atum_ucode::stock::pcb;
use std::fmt;

const SCB_PHYS: u32 = 0;
const KERNEL_PHYS: u32 = KERNEL_BASE_VA - SYSTEM_VA;
const SYS_PT_PHYS: u32 = 0x0004_0000;
const ALLOC_BASE: u32 = 0x0006_0000;

/// Errors building or loading a boot image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootError {
    /// A user program failed to assemble.
    Asm(String),
    /// The kernel failed to assemble (a bug in this crate).
    Kernel(String),
    /// Too many processes.
    TooManyProcesses,
    /// A user image falls outside its P0 budget.
    ImageOutOfRange(String),
    /// Physical memory exhausted during layout.
    OutOfMemory,
    /// A write to machine memory failed during load.
    Load(String),
}

impl fmt::Display for BootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootError::Asm(e) => write!(f, "user program: {e}"),
            BootError::Kernel(e) => write!(f, "kernel: {e}"),
            BootError::TooManyProcesses => write!(f, "more than {MAX_PROCS} processes"),
            BootError::ImageOutOfRange(e) => write!(f, "image out of range: {e}"),
            BootError::OutOfMemory => f.write_str("physical memory exhausted"),
            BootError::Load(e) => write!(f, "load failed: {e}"),
        }
    }
}

impl std::error::Error for BootError {}

/// One loaded process's layout, reported for inspection and tests.
#[derive(Debug, Clone)]
pub struct LoadedProcess {
    /// Process id (index + 1).
    pub pid: u8,
    /// Entry point VA.
    pub entry: u32,
    /// Physical address of the PCB.
    pub pcb_phys: u32,
    /// Pages of code/data mapped in P0.
    pub p0_pages: u32,
    /// Assembled image (symbols available to tests).
    pub image: Image,
}

/// A fully laid-out bootable system.
#[derive(Debug)]
pub struct BootImage {
    layout: MemLayout,
    kernel: Image,
    writes: Vec<(u32, Vec<u8>)>,
    processes: Vec<LoadedProcess>,
    boot_sp: u32,
    boot_pc: u32,
}

/// Builder for [`BootImage`].
#[derive(Debug)]
pub struct BootImageBuilder {
    programs: Vec<String>,
    layout: MemLayout,
    kernel_opts: KernelOptions,
    quantum: u32,
    extra_bss_pages: u32,
    lazy_heap_pages: u32,
    tbit_all: bool,
}

impl BootImage {
    /// Starts a builder.
    pub fn builder() -> BootImageBuilder {
        BootImageBuilder {
            programs: Vec::new(),
            layout: MemLayout::small(),
            kernel_opts: KernelOptions::default(),
            quantum: 20_000,
            extra_bss_pages: 4,
            lazy_heap_pages: 32,
            tbit_all: false,
        }
    }

    /// The memory layout the machine must be built with.
    pub fn memory_layout(&self) -> MemLayout {
        self.layout
    }

    /// The kernel image (symbol access for tests).
    pub fn kernel(&self) -> &Image {
        &self.kernel
    }

    /// The loaded processes.
    pub fn processes(&self) -> &[LoadedProcess] {
        &self.processes
    }

    /// Writes the image into a machine and sets the boot registers.
    ///
    /// # Errors
    ///
    /// [`BootError::Load`] if the machine is smaller than the layout the
    /// image was built for.
    pub fn load_into(&self, m: &mut Machine) -> Result<(), BootError> {
        for (pa, bytes) in &self.writes {
            m.write_phys(*pa, bytes)
                .map_err(|e| BootError::Load(e.to_string()))?;
        }
        m.write_prv(PrivReg::Scbb, SCB_PHYS);
        m.write_prv(PrivReg::Sbr, SYS_PT_PHYS);
        m.write_prv(PrivReg::Slr, self.layout.os_visible_bytes / PAGE_SIZE);
        m.write_prv(PrivReg::Mapen, 1);
        m.set_gpr(14, self.boot_sp);
        let mut psl = Psl::new(); // kernel, IPL 31
        psl.set_ipl(31);
        m.set_psl(psl);
        m.set_pc(self.boot_pc);
        Ok(())
    }
}

/// Bump allocator over the physical region above the fixed layout.
struct Bump {
    next: u32,
    limit: u32,
}

impl Bump {
    fn alloc_pages(&mut self, pages: u32) -> Result<u32, BootError> {
        let bytes = pages * PAGE_SIZE;
        if self.next + bytes > self.limit {
            return Err(BootError::OutOfMemory);
        }
        let at = self.next;
        self.next += bytes;
        Ok(at)
    }
}

impl BootImageBuilder {
    /// Adds a user program (SVX assembly; loaded at [`USER_BASE_VA`] and
    /// entered at its `start` symbol, or the image base if absent).
    pub fn user_program(mut self, source: &str) -> BootImageBuilder {
        self.programs.push(source.to_string());
        self
    }

    /// Overrides the physical memory layout (default [`MemLayout::small`]).
    pub fn memory_layout(mut self, layout: MemLayout) -> BootImageBuilder {
        self.layout = layout;
        self
    }

    /// Sets the scheduling quantum in microcycles (default 20 000).
    pub fn quantum(mut self, cycles: u32) -> BootImageBuilder {
        self.quantum = cycles;
        self
    }

    /// Sets kernel build options (T-bit handler behaviour).
    pub fn kernel_options(mut self, opts: KernelOptions) -> BootImageBuilder {
        self.kernel_opts = opts;
        self
    }

    /// Extra zeroed pages mapped after each user image (default 4).
    pub fn extra_bss_pages(mut self, pages: u32) -> BootImageBuilder {
        self.extra_bss_pages = pages;
        self
    }

    /// Demand-zero heap pages per process at [`crate::USER_HEAP_VA`]
    /// (default 32); 0 disables the lazy heap.
    pub fn lazy_heap_pages(mut self, pages: u32) -> BootImageBuilder {
        self.lazy_heap_pages = pages;
        self
    }

    /// Sets the T bit in every process PSL (used by the trap-driven
    /// software-tracer baseline).
    pub fn trace_trap_all(mut self, on: bool) -> BootImageBuilder {
        self.tbit_all = on;
        self
    }

    /// Builds the boot image.
    ///
    /// # Errors
    ///
    /// Any [`BootError`].
    pub fn build(self) -> Result<BootImage, BootError> {
        if self.programs.len() > MAX_PROCS {
            return Err(BootError::TooManyProcesses);
        }
        let kernel_src = kernel::source(&self.kernel_opts);
        let kernel =
            atum_asm::assemble(&kernel_src).map_err(|e| BootError::Kernel(e.to_string()))?;
        let mut writes: Vec<(u32, Vec<u8>)> = Vec::new();

        // Kernel image bytes, with nproc/quantum poked in place.
        let mut kbytes = kernel.flatten();
        let poke = |bytes: &mut Vec<u8>, img: &Image, sym: &str, value: u32| {
            let off = (img.symbol(sym).expect("kernel symbol") - img.base()) as usize;
            bytes[off..off + 4].copy_from_slice(&value.to_le_bytes());
        };
        poke(&mut kbytes, &kernel, "nproc", self.programs.len() as u32);
        poke(&mut kbytes, &kernel, "quantum", self.quantum);

        // System page table: identity map of all OS-visible memory.
        let visible_pages = self.layout.os_visible_bytes / PAGE_SIZE;
        let mut sys_pt = Vec::with_capacity((visible_pages * 4) as usize);
        for pfn in 0..visible_pages {
            sys_pt.extend_from_slice(&Pte::new(pfn, PageProt::KernelRw).0.to_le_bytes());
        }
        assert!(
            SYS_PT_PHYS + visible_pages * 4 <= ALLOC_BASE,
            "system page table overflows its slot"
        );
        writes.push((SYS_PT_PHYS, sys_pt));

        let mut bump = Bump {
            next: ALLOC_BASE,
            limit: self.layout.os_visible_bytes,
        };
        let mut processes = Vec::new();

        for (i, src) in self.programs.iter().enumerate() {
            let full = format!(".org {USER_BASE_VA:#x}\n{src}\n");
            let image = atum_asm::assemble(&full).map_err(|e| BootError::Asm(e.to_string()))?;
            if image.base() < USER_BASE_VA || image.end() > 0x0040_0000 {
                return Err(BootError::ImageOutOfRange(format!(
                    "process {i} occupies {:#x}..{:#x}",
                    image.base(),
                    image.end()
                )));
            }
            let first_page = image.base() >> 9;
            let last_page = (image.end().max(image.base() + 1) - 1) >> 9;
            let eager_pages = last_page + 1 + self.extra_bss_pages;
            let heap_vpn = crate::USER_HEAP_VA >> 9;
            let p0_pages = if self.lazy_heap_pages > 0 {
                assert!(
                    eager_pages <= heap_vpn,
                    "image too large: overlaps the heap region"
                );
                heap_vpn + self.lazy_heap_pages
            } else {
                eager_pages
            };

            // Frames for the eagerly mapped range; page 0 stays unmapped
            // as a null guard, and heap pages have no frames yet.
            let frames = bump.alloc_pages(eager_pages - 1)?;
            let flat = image.flatten();
            let img_off = image.base() - first_page * PAGE_SIZE;
            // Physical address of page 1 is `frames`; page k (k>=1) is at
            // frames + (k-1)*PAGE.
            let image_phys = frames + (first_page - 1) * PAGE_SIZE + img_off;
            writes.push((image_phys, flat));

            // P0 page table.
            let p0_pt = bump.alloc_pages(((p0_pages * 4).div_ceil(PAGE_SIZE)).max(1))?;
            let mut table = vec![0u8; (p0_pages * 4) as usize];
            for vpn in 1..eager_pages {
                let pfn = (frames >> 9) + (vpn - 1);
                table[(vpn * 4) as usize..(vpn * 4 + 4) as usize]
                    .copy_from_slice(&Pte::new(pfn, PageProt::AllRw).0.to_le_bytes());
            }
            // Lazy heap pages: invalid, marked demand-zero for the kernel.
            if self.lazy_heap_pages > 0 {
                for k in 0..self.lazy_heap_pages {
                    let vpn = heap_vpn + k;
                    table[(vpn * 4) as usize..(vpn * 4 + 4) as usize]
                        .copy_from_slice(&crate::PTE_DEMAND_ZERO.to_le_bytes());
                }
            }
            writes.push((p0_pt, table));

            // P1 stack: the top USER_STACK_PAGES pages below USER_STACK_TOP.
            let stack_frames = bump.alloc_pages(USER_STACK_PAGES)?;
            let p1_entries = (USER_STACK_TOP - 0x4000_0000) / PAGE_SIZE;
            let p1_pt = bump.alloc_pages(((p1_entries * 4).div_ceil(PAGE_SIZE)).max(1))?;
            let mut p1_table = vec![0u8; (p1_entries * 4) as usize];
            for k in 0..USER_STACK_PAGES {
                let vpn = p1_entries - USER_STACK_PAGES + k;
                let pfn = (stack_frames >> 9) + k;
                p1_table[(vpn * 4) as usize..(vpn * 4 + 4) as usize]
                    .copy_from_slice(&Pte::new(pfn, PageProt::AllRw).0.to_le_bytes());
            }
            writes.push((p1_pt, p1_table));

            // Kernel stack (8 pages) and the PCB.
            let kstack = bump.alloc_pages(8)?;
            let ksp_va = SYSTEM_VA + kstack + 8 * PAGE_SIZE;
            let pcb_phys = bump.alloc_pages(1)?;
            let entry = image.symbol("start").unwrap_or_else(|| image.base());
            let mut user_psl = Psl::new();
            user_psl.set_ipl(0);
            user_psl.set_mode(CpuMode::User);
            user_psl.set_prev_mode(CpuMode::User);
            if self.tbit_all {
                user_psl.set_t(true);
            }
            let mut pcb_bytes = vec![0u8; pcb::SIZE as usize];
            let put = |b: &mut Vec<u8>, off: u32, v: u32| {
                b[off as usize..off as usize + 4].copy_from_slice(&v.to_le_bytes());
            };
            put(&mut pcb_bytes, pcb::KSP, ksp_va);
            put(&mut pcb_bytes, pcb::USP, USER_STACK_TOP);
            put(&mut pcb_bytes, pcb::PC, entry);
            put(&mut pcb_bytes, pcb::PSL, user_psl.bits());
            put(&mut pcb_bytes, pcb::P0BR, p0_pt);
            put(&mut pcb_bytes, pcb::P0LR, p0_pages);
            put(&mut pcb_bytes, pcb::P1BR, p1_pt);
            put(&mut pcb_bytes, pcb::P1LR, p1_entries);
            put(&mut pcb_bytes, pcb::PID, i as u32 + 1);
            writes.push((pcb_phys, pcb_bytes));

            // Poke the PCB address into the kernel's table.
            let pcbtab_off =
                (kernel.symbol("pcbtab").expect("pcbtab") - kernel.base()) as usize + i * 4;
            kbytes[pcbtab_off..pcbtab_off + 4].copy_from_slice(&pcb_phys.to_le_bytes());

            processes.push(LoadedProcess {
                pid: i as u8 + 1,
                entry,
                pcb_phys,
                p0_pages,
                image,
            });
        }

        // The software-trace buffer for the T-bit kernel, outside the image.
        if self.kernel_opts.tbit == crate::kernel::TbitMode::LogPc {
            let pages = self.kernel_opts.swtrace_bytes.div_ceil(PAGE_SIZE).max(1);
            let buf_phys = bump.alloc_pages(pages)?;
            let base_va = SYSTEM_VA + buf_phys;
            poke(&mut kbytes, &kernel, "swt_base", base_va);
            poke(&mut kbytes, &kernel, "swt_ptr", base_va);
            poke(
                &mut kbytes,
                &kernel,
                "swt_limit",
                base_va + self.kernel_opts.swtrace_bytes,
            );
        }

        // The frame pool for demand paging: everything between the bump
        // allocator's high-water mark and the OS-visible limit.
        let pool_base = (bump.next + PAGE_SIZE - 1) & !(PAGE_SIZE - 1);
        poke(&mut kbytes, &kernel, "freemem", pool_base);
        poke(
            &mut kbytes,
            &kernel,
            "freemem_end",
            self.layout.os_visible_bytes,
        );

        // The kernel image must fit under the system page table region.
        if KERNEL_PHYS + kbytes.len() as u32 > SYS_PT_PHYS {
            return Err(BootError::ImageOutOfRange(format!(
                "kernel image of {} bytes overruns {:#x}",
                kbytes.len(),
                SYS_PT_PHYS
            )));
        }
        writes.push((KERNEL_PHYS, kbytes));

        let boot_sp = kernel.symbol("kstack_top").expect("kstack_top");
        let boot_pc = kernel.symbol("kstart").expect("kstart");
        Ok(BootImage {
            layout: self.layout,
            kernel,
            writes,
            processes,
            boot_sp,
            boot_pc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_system_builds() {
        let img = BootImage::builder().build().unwrap();
        assert_eq!(img.processes().len(), 0);
        assert!(img.kernel().symbol("kstart").is_some());
    }

    #[test]
    fn too_many_processes_rejected() {
        let mut b = BootImage::builder();
        for _ in 0..(MAX_PROCS + 1) {
            b = b.user_program("start: chmk #0\n");
        }
        assert_eq!(b.build().unwrap_err(), BootError::TooManyProcesses);
    }

    #[test]
    fn bad_user_program_reports_asm_error() {
        let err = BootImage::builder()
            .user_program("start: frobnicate r0\n")
            .build()
            .unwrap_err();
        assert!(matches!(err, BootError::Asm(_)));
    }

    #[test]
    fn process_layout_is_disjoint() {
        let img = BootImage::builder()
            .user_program("start: chmk #0\n buf: .space 4096\n")
            .user_program("start: chmk #0\n")
            .build()
            .unwrap();
        let ps = img.processes();
        assert_eq!(ps.len(), 2);
        assert_ne!(ps[0].pcb_phys, ps[1].pcb_phys);
        assert_eq!(ps[0].pid, 1);
        assert_eq!(ps[1].pid, 2);
        assert!(ps[0].p0_pages >= 9, "code + 4 KiB buffer + bss pages");
    }
}
