//! GPU and machine hardware specifications.

use crate::links::LinkSpec;

/// A single accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Dense BF16 peak, FLOP/s.
    pub bf16_flops: f64,
    /// HBM bandwidth, bytes/s.
    pub hbm_bandwidth: f64,
    /// HBM capacity, bytes.
    pub memory_bytes: f64,
}

impl GpuSpec {
    /// NVIDIA H800-80GB as used in the paper's testbed: H100-class compute
    /// and HBM3, export-reduced NVLink (modelled on the machine's links).
    pub fn h800() -> Self {
        GpuSpec {
            name: "H800-80GB".to_string(),
            bf16_flops: 989e12,
            hbm_bandwidth: 3.35e12,
            memory_bytes: 80e9,
        }
    }

    /// A deliberately small fictional device for fast unit tests.
    pub fn tiny_test_gpu() -> Self {
        GpuSpec {
            name: "TestGPU-8GB".to_string(),
            bf16_flops: 10e12,
            hbm_bandwidth: 0.5e12,
            memory_bytes: 8e9,
        }
    }
}

/// One server: several GPUs plus its fabric attachments.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Accelerator model installed.
    pub gpu: GpuSpec,
    /// GPUs per machine.
    pub gpus: usize,
    /// Intra-machine GPU-GPU interconnect (NVLink).
    pub nvlink: LinkSpec,
    /// Host-device link (PCIe), used by rollouts pulling weights from their
    /// colocated relay worker.
    pub pcie: LinkSpec,
    /// Effective inter-machine RDMA path available to one chain-broadcast
    /// flow (the NICs are shared with training traffic, so this is below the
    /// 8×400 Gbps aggregate).
    pub rdma: LinkSpec,
    /// Host DRAM available to relay workers, bytes.
    pub host_memory_bytes: f64,
}

impl MachineSpec {
    /// The paper's H800 server: 8 GPUs, 400 GB/s NVLink, PCIe Gen5,
    /// 8×400 Gbps RDMA NICs (≈90 GB/s effective per broadcast flow, which
    /// matches the reported 72B broadcast completing in ≈1.6 s).
    pub fn h800_server() -> Self {
        MachineSpec {
            gpu: GpuSpec::h800(),
            gpus: 8,
            nvlink: LinkSpec::new("nvlink", 400e9, 3e-6),
            pcie: LinkSpec::new("pcie5", 55e9, 8e-6),
            rdma: LinkSpec::new("rdma", 90e9, 5e-6),
            host_memory_bytes: 2e12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h800_spec_is_sane() {
        let g = GpuSpec::h800();
        assert!(g.bf16_flops > 9e14);
        assert!(g.hbm_bandwidth > 3e12);
        assert_eq!(g.memory_bytes, 80e9);
    }

    #[test]
    fn test_gpu_is_smaller_than_h800() {
        let t = GpuSpec::tiny_test_gpu();
        let h = GpuSpec::h800();
        assert!(t.bf16_flops < h.bf16_flops);
        assert!(t.memory_bytes < h.memory_bytes);
    }
}
