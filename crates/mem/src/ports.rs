//! Per-cycle port arbitration.

/// Arbitrates a fixed number of ports per cycle.
///
/// The Table 1 data cache is dual-ported: at most two memory operations
/// may access it per cycle. The pipeline asks the arbiter for a port
/// before issuing a memory operation; a denied request is counted as
/// resource contention (Figure 5 of the paper).
///
/// # Examples
///
/// ```
/// use vpir_mem::PortArbiter;
/// let mut ports = PortArbiter::new(2);
/// assert!(ports.request(100));
/// assert!(ports.request(100));
/// assert!(!ports.request(100)); // third request in cycle 100 denied
/// assert!(ports.request(101));  // new cycle, ports free again
/// ```
#[derive(Debug, Clone)]
pub struct PortArbiter {
    ports: u32,
    cycle: u64,
    used: u32,
    requests: u64,
    denied: u64,
}

impl PortArbiter {
    /// Creates an arbiter with `ports` ports per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: u32) -> PortArbiter {
        assert!(ports > 0, "need at least one port");
        PortArbiter {
            ports,
            cycle: 0,
            used: 0,
            requests: 0,
            denied: 0,
        }
    }

    /// Requests a port in `cycle`; returns whether one was granted.
    ///
    /// Cycles may only move forward; a request for an earlier cycle than
    /// the last one seen is treated as the current cycle.
    pub fn request(&mut self, cycle: u64) -> bool {
        if cycle > self.cycle {
            self.cycle = cycle;
            self.used = 0;
        }
        self.requests += 1;
        if self.used < self.ports {
            self.used += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Total `(requests, denied)`: every request, granted or not, and
    /// the denied ones among them.
    pub fn totals(&self) -> (u64, u64) {
        (self.requests, self.denied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_up_to_port_count() {
        let mut p = PortArbiter::new(2);
        assert!(p.request(5));
        assert!(p.request(5));
        assert!(!p.request(5));
        assert_eq!(p.totals(), (3, 1));
    }

    #[test]
    fn new_cycle_frees_ports() {
        let mut p = PortArbiter::new(1);
        assert!(p.request(1));
        assert!(!p.request(1));
        assert!(p.request(2));
    }

    #[test]
    fn stale_cycle_counts_against_current() {
        let mut p = PortArbiter::new(1);
        assert!(p.request(10));
        assert!(!p.request(9)); // treated as cycle 10, which is full
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        PortArbiter::new(0);
    }
}
