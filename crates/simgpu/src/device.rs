//! The simulated device: global memory, buffers and transfers.
//!
//! A [`SimDevice`] owns a global-memory budget (the catalog card's HBM
//! capacity), performance counters, and a backend profile. Host↔device
//! copies are real `memcpy`s — the data genuinely lives in separate
//! buffers, so code cannot accidentally bypass the device model — and every
//! transfer and allocation is accounted, which yields the paper's per-GPU
//! memory numbers (Fig. 4b) for free.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use plssvm_data::Real;

use crate::error::SimGpuError;
use crate::fault::{FaultPlan, FaultState};
use crate::hw::{backend_profile, Backend, BackendProfile, GpuSpec};
use crate::perf::{transfer_time_s, PerfCounters, PerfReport};

#[derive(Debug, Default)]
struct MemState {
    allocated: usize,
    peak: usize,
}

pub(crate) struct DeviceState {
    pub(crate) spec: GpuSpec,
    pub(crate) backend: Backend,
    pub(crate) profile: BackendProfile,
    mem: Mutex<MemState>,
    pub(crate) perf: Mutex<PerfCounters>,
    /// `Some` once a [`FaultPlan`] is installed; `None` devices are
    /// fault-free and skip all fault bookkeeping.
    faults: Mutex<Option<FaultState>>,
}

impl DeviceState {
    fn alloc_bytes(&self, bytes: usize) -> Result<(), SimGpuError> {
        let mut mem = self.mem.lock();
        let capacity = self.spec.memory_bytes();
        let available = capacity - mem.allocated;
        if bytes > available {
            return Err(SimGpuError::OutOfMemory {
                requested: bytes,
                available,
                capacity,
            });
        }
        mem.allocated += bytes;
        mem.peak = mem.peak.max(mem.allocated);
        Ok(())
    }

    fn free_bytes(&self, bytes: usize) {
        let mut mem = self.mem.lock();
        mem.allocated = mem.allocated.saturating_sub(bytes);
    }

    /// Launch-time fault gate: advances the attempt counter and returns the
    /// simulated-time multiplier, or the injected failure. `Ok(1.0)` and no
    /// bookkeeping when no plan is installed.
    pub(crate) fn fault_check(&self, device: usize) -> Result<f64, SimGpuError> {
        match self.faults.lock().as_mut() {
            None => Ok(1.0),
            Some(fs) => fs.check(device),
        }
    }
}

/// One simulated accelerator.
///
/// Cloning is cheap and shares the underlying device (like holding two
/// handles to the same CUDA context).
///
/// ```
/// use plssvm_simgpu::{hw, Backend, Grid, LaunchConfig, Precision, SimDevice};
///
/// let dev = SimDevice::new(hw::A100, Backend::Cuda);
/// let input = dev.copy_to_device(&[1.0f64; 64])?;
/// let sum = dev.alloc_atomic::<f64>(1)?;
/// let cfg = LaunchConfig::new("reduce", Grid::one_d(8), Precision::F64);
/// dev.launch(&cfg, |blk, ctx| {
///     let tile = &input.as_slice()[blk.x * 8..(blk.x + 1) * 8];
///     sum.add(0, tile.iter().sum());
///     ctx.add_flops(8);
/// })?;
/// assert_eq!(sum.get(0), 64.0);
/// assert_eq!(dev.perf_report().kernel_launches, 1);
/// # Ok::<(), plssvm_simgpu::SimGpuError>(())
/// ```
#[derive(Clone)]
pub struct SimDevice {
    pub(crate) state: Arc<DeviceState>,
    id: usize,
}

impl std::fmt::Debug for SimDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDevice")
            .field("id", &self.id)
            .field("spec", &self.state.spec.name)
            .field("backend", &self.state.backend.name())
            .finish()
    }
}

impl SimDevice {
    /// Creates a device of the given hardware type driven by `backend`.
    ///
    /// # Panics
    /// Panics if the backend cannot drive the hardware (CUDA on non-NVIDIA
    /// — the `—` cells of Table I). Use [`Backend::supports`] to check.
    pub fn new(spec: GpuSpec, backend: Backend) -> Self {
        Self::with_id(spec, backend, 0)
    }

    /// Creates a device with an explicit id (for multi-device contexts).
    pub fn with_id(spec: GpuSpec, backend: Backend, id: usize) -> Self {
        assert!(
            backend.supports(&spec),
            "{} cannot drive {}",
            backend.name(),
            spec.name
        );
        let profile = backend_profile(backend, &spec);
        Self {
            state: Arc::new(DeviceState {
                spec,
                backend,
                profile,
                mem: Mutex::new(MemState::default()),
                perf: Mutex::new(PerfCounters::default()),
                faults: Mutex::new(None),
            }),
            id,
        }
    }

    /// The device id within its context.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The hardware specification of this device.
    pub fn spec(&self) -> &GpuSpec {
        &self.state.spec
    }

    /// The backend driving this device.
    pub fn backend(&self) -> Backend {
        self.state.backend
    }

    /// Allocates a zero-initialized device buffer of `len` elements.
    pub fn alloc<T: Real>(&self, len: usize) -> Result<DeviceBuffer<T>, SimGpuError> {
        let bytes = len * T::BYTES;
        self.state.alloc_bytes(bytes)?;
        Ok(DeviceBuffer {
            data: vec![T::ZERO; len].into_boxed_slice(),
            state: Arc::clone(&self.state),
            bytes,
        })
    }

    /// Allocates a device buffer and uploads `src` into it (tracked H2D).
    pub fn copy_to_device<T: Real>(&self, src: &[T]) -> Result<DeviceBuffer<T>, SimGpuError> {
        let mut buf = self.alloc(src.len())?;
        buf.write_from_host(src)?;
        Ok(buf)
    }

    /// Allocates a zeroed atomically-updatable buffer (the simulated
    /// equivalent of a buffer written with `atomicAdd`).
    pub fn alloc_atomic<T: AtomicScalar>(
        &self,
        len: usize,
    ) -> Result<AtomicBuffer<T>, SimGpuError> {
        let bytes = len * T::BYTES;
        self.state.alloc_bytes(bytes)?;
        Ok(AtomicBuffer {
            data: (0..len).map(|_| T::atomic_zero()).collect(),
            state: Arc::clone(&self.state),
            bytes,
        })
    }

    /// Currently allocated device memory in bytes.
    pub fn allocated_bytes(&self) -> usize {
        self.state.mem.lock().allocated
    }

    /// High-water mark of device memory in bytes.
    pub fn peak_allocated_bytes(&self) -> usize {
        self.state.mem.lock().peak
    }

    /// Snapshot of all performance counters.
    pub fn perf_report(&self) -> PerfReport {
        let perf = self.state.perf.lock();
        let mem = self.state.mem.lock();
        PerfReport {
            kernel_launches: perf.kernel_launches,
            total_flops: perf.total_flops,
            global_bytes: perf.global_bytes,
            h2d_bytes: perf.h2d_bytes,
            d2h_bytes: perf.d2h_bytes,
            sim_compute_time_s: perf.sim_compute_time_s,
            sim_transfer_time_s: perf.sim_transfer_time_s,
            allocated_bytes: mem.allocated,
            peak_allocated_bytes: mem.peak,
            per_kernel: perf.per_kernel.clone(),
        }
    }

    /// Clears performance counters (keeps allocations and peak memory).
    pub fn reset_perf(&self) {
        *self.state.perf.lock() = PerfCounters::default();
    }

    /// Installs the events of `plan` that target this device (matched by
    /// [`SimDevice::id`]). Resets the launch-attempt counter to 0, so
    /// triggers are relative to the moment of installation. Installing an
    /// empty or non-matching plan still arms the counter.
    pub fn install_fault_plan(&self, plan: &FaultPlan) {
        *self.state.faults.lock() = Some(FaultState::new(plan.events_for(self.id)));
    }

    /// Removes any installed fault plan; the device behaves nominally again.
    pub fn clear_faults(&self) {
        *self.state.faults.lock() = None;
    }

    /// Launch attempts (successful or faulted) observed since the fault
    /// plan was installed. 0 when no plan is installed.
    pub fn fault_attempts(&self) -> u64 {
        self.state
            .faults
            .lock()
            .as_ref()
            .map_or(0, |fs| fs.attempts())
    }

    /// True once an injected fail-stop has tripped on this device.
    pub fn has_failed(&self) -> bool {
        self.state
            .faults
            .lock()
            .as_ref()
            .is_some_and(|fs| fs.failed())
    }
}

/// A plain device-global buffer.
///
/// Kernels read it through [`DeviceBuffer::as_slice`]; writes from the host
/// go through the tracked upload of [`SimDevice::copy_to_device`].
pub struct DeviceBuffer<T> {
    data: Box<[T]>,
    state: Arc<DeviceState>,
    bytes: usize,
}

impl<T> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("len", &self.data.len())
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl<T: Real> DeviceBuffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Device-side view of the data (for kernels).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Uploads host data into the buffer (tracked H2D transfer).
    fn write_from_host(&mut self, src: &[T]) -> Result<(), SimGpuError> {
        if src.len() != self.data.len() {
            return Err(SimGpuError::TransferSizeMismatch {
                src: src.len(),
                dst: self.data.len(),
            });
        }
        self.data.copy_from_slice(src);
        let bytes = self.bytes;
        let t = transfer_time_s(&self.state.spec, bytes as u64);
        self.state
            .perf
            .lock()
            .record_transfer(true, bytes as u64, t);
        Ok(())
    }

    /// Downloads the buffer to the host (tracked D2H transfer).
    pub fn read_to_host(&self) -> Vec<T> {
        let bytes = self.bytes;
        let t = transfer_time_s(&self.state.spec, bytes as u64);
        self.state
            .perf
            .lock()
            .record_transfer(false, bytes as u64, t);
        self.data.to_vec()
    }
}

impl<T> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.state.free_bytes(self.bytes);
    }
}

/// A scalar that supports simulated-`atomicAdd` accumulation.
///
/// Implemented via compare-and-swap over the IEEE-754 bit pattern, exactly
/// how GPUs without native FP64 atomics implement `atomicAdd`.
pub trait AtomicScalar: Real {
    /// The backing atomic storage cell.
    type Atomic: Send + Sync;
    /// A cell holding `0.0`.
    fn atomic_zero() -> Self::Atomic;
    /// `*a += v`, atomically.
    fn atomic_add(a: &Self::Atomic, v: Self);
    /// Atomic read.
    fn atomic_load(a: &Self::Atomic) -> Self;
    /// Atomic write.
    fn atomic_store(a: &Self::Atomic, v: Self);
}

impl AtomicScalar for f64 {
    type Atomic = AtomicU64;

    fn atomic_zero() -> AtomicU64 {
        AtomicU64::new(0.0f64.to_bits())
    }

    #[inline]
    fn atomic_add(a: &AtomicU64, v: f64) {
        let mut current = a.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(current) + v).to_bits();
            match a.compare_exchange_weak(current, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    #[inline]
    fn atomic_load(a: &AtomicU64) -> f64 {
        f64::from_bits(a.load(Ordering::Relaxed))
    }

    #[inline]
    fn atomic_store(a: &AtomicU64, v: f64) {
        a.store(v.to_bits(), Ordering::Relaxed);
    }
}

impl AtomicScalar for f32 {
    type Atomic = AtomicU32;

    fn atomic_zero() -> AtomicU32 {
        AtomicU32::new(0.0f32.to_bits())
    }

    #[inline]
    fn atomic_add(a: &AtomicU32, v: f32) {
        let mut current = a.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(current) + v).to_bits();
            match a.compare_exchange_weak(current, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    #[inline]
    fn atomic_load(a: &AtomicU32) -> f32 {
        f32::from_bits(a.load(Ordering::Relaxed))
    }

    #[inline]
    fn atomic_store(a: &AtomicU32, v: f32) {
        a.store(v.to_bits(), Ordering::Relaxed);
    }
}

/// A device buffer kernels may update concurrently with `atomicAdd`.
pub struct AtomicBuffer<T: AtomicScalar> {
    data: Box<[T::Atomic]>,
    state: Arc<DeviceState>,
    bytes: usize,
}

impl<T: AtomicScalar> AtomicBuffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `self[i] += v`, atomically (kernel-side `atomicAdd`).
    #[inline]
    pub fn add(&self, i: usize, v: T) {
        T::atomic_add(&self.data[i], v);
    }

    /// Reads element `i` (kernel-side).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::atomic_load(&self.data[i])
    }

    /// Overwrites element `i` (kernel-side; no accounting).
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        T::atomic_store(&self.data[i], v);
    }

    /// Downloads the buffer to the host (tracked D2H transfer).
    pub fn read_to_host(&self) -> Vec<T> {
        let bytes = self.bytes;
        let t = transfer_time_s(&self.state.spec, bytes as u64);
        self.state
            .perf
            .lock()
            .record_transfer(false, bytes as u64, t);
        self.data.iter().map(|c| T::atomic_load(c)).collect()
    }
}

impl<T: AtomicScalar> Drop for AtomicBuffer<T> {
    fn drop(&mut self) {
        self.state.free_bytes(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::{A100, INTEL_P630, RADEON_VII};

    fn device() -> SimDevice {
        SimDevice::new(A100, Backend::Cuda)
    }

    #[test]
    fn allocation_accounting() {
        let dev = device();
        assert_eq!(dev.allocated_bytes(), 0);
        let a = dev.alloc::<f64>(1000).unwrap();
        assert_eq!(dev.allocated_bytes(), 8000);
        let b = dev.alloc::<f32>(1000).unwrap();
        assert_eq!(dev.allocated_bytes(), 12000);
        drop(a);
        assert_eq!(dev.allocated_bytes(), 4000);
        drop(b);
        assert_eq!(dev.allocated_bytes(), 0);
        assert_eq!(dev.peak_allocated_bytes(), 12000);
    }

    #[test]
    fn out_of_memory_reported() {
        // Intel iGPU: 8 GiB budget
        let dev = SimDevice::new(INTEL_P630, Backend::OpenCl);
        let err = dev.alloc::<f64>(2 * (1usize << 30)).unwrap_err();
        match err {
            SimGpuError::OutOfMemory {
                requested,
                capacity,
                ..
            } => {
                assert_eq!(requested, 16 * (1usize << 30));
                assert_eq!(capacity, 8 * (1usize << 30));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // the failed allocation must not leak accounting
        assert_eq!(dev.allocated_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot drive")]
    fn cuda_on_amd_panics() {
        let _ = SimDevice::new(RADEON_VII, Backend::Cuda);
    }

    #[test]
    fn transfer_roundtrip_and_accounting() {
        let dev = device();
        let host: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let buf = dev.copy_to_device(&host).unwrap();
        assert_eq!(buf.as_slice(), &host[..]);
        let back = buf.read_to_host();
        assert_eq!(back, host);
        let r = dev.perf_report();
        assert_eq!(r.h2d_bytes, 800);
        assert_eq!(r.d2h_bytes, 800);
        assert!(r.sim_transfer_time_s > 0.0);
    }

    #[test]
    fn transfer_size_mismatch() {
        let dev = device();
        let mut buf = dev.alloc::<f64>(4).unwrap();
        assert!(matches!(
            buf.write_from_host(&[1.0; 3]),
            Err(SimGpuError::TransferSizeMismatch { src: 3, dst: 4 })
        ));
    }

    #[test]
    fn atomic_buffer_accumulates() {
        let dev = device();
        let buf = dev.alloc_atomic::<f64>(4).unwrap();
        buf.add(0, 1.5);
        buf.add(0, 2.5);
        buf.set(1, -3.0);
        assert_eq!(buf.get(0), 4.0);
        assert_eq!(buf.get(1), -3.0);
        assert_eq!(buf.read_to_host(), vec![4.0, -3.0, 0.0, 0.0]);
    }

    #[test]
    fn atomic_buffer_concurrent_adds() {
        use rayon::prelude::*;
        let dev = device();
        let buf = dev.alloc_atomic::<f64>(1).unwrap();
        (0..10_000usize)
            .into_par_iter()
            .for_each(|_| buf.add(0, 1.0));
        assert_eq!(buf.get(0), 10_000.0);
    }

    #[test]
    fn atomic_buffer_f32() {
        let dev = device();
        let buf = dev.alloc_atomic::<f32>(2).unwrap();
        buf.add(1, 0.5f32);
        buf.add(1, 0.25f32);
        assert_eq!(buf.get(1), 0.75f32);
        assert_eq!(dev.allocated_bytes(), 8);
        drop(buf);
        assert_eq!(dev.allocated_bytes(), 0);
    }

    #[test]
    fn reset_perf_keeps_memory() {
        let dev = device();
        let _buf = dev.copy_to_device(&[1.0f64; 10]).unwrap();
        assert!(dev.perf_report().h2d_bytes > 0);
        dev.reset_perf();
        let r = dev.perf_report();
        assert_eq!(r.h2d_bytes, 0);
        assert_eq!(r.allocated_bytes, 80);
        assert_eq!(r.peak_allocated_bytes, 80);
    }

    #[test]
    fn clone_shares_device() {
        let dev = device();
        let dev2 = dev.clone();
        let _buf = dev.alloc::<f64>(10).unwrap();
        assert_eq!(dev2.allocated_bytes(), 80);
    }

    #[test]
    fn debug_format_mentions_hardware() {
        let dev = device();
        let s = format!("{dev:?}");
        assert!(s.contains("A100") && s.contains("CUDA"));
    }
}
