//! PAMI clients — independent network instances.
//!
//! "A client can be thought of as an independent network interface with its
//! own set of network and communication resources" (paper section III.A).
//! Each programming-model runtime creates its own client; clients of the
//! same name across tasks form one network instance, and different names
//! are fully isolated — separate FIFOs, separate dispatch tables, separate
//! endpoints — which is what lets MPI and (say) a UPC runtime coexist in
//! one job.

use std::sync::Arc;

use crate::context::Context;
use crate::endpoint::Endpoint;
use crate::machine::Machine;

/// One task's handle to a named network instance, owning that task's
/// contexts.
pub struct Client {
    machine: Arc<Machine>,
    id: u16,
    name: String,
    task: u32,
    contexts: Vec<Arc<Context>>,
}

impl Client {
    /// Create (this task's part of) the client `name` with `num_contexts`
    /// communication contexts.
    ///
    /// Every task intending to communicate over this client must create it
    /// before any task sends (each context publishes its address into the
    /// client's endpoint table when it is created), and every task must
    /// ask for the same context count.
    ///
    /// # Panics
    /// If an earlier task created `name` with a different context count, or
    /// the node has too few MU FIFOs left for the requested contexts.
    pub fn create(
        machine: &Arc<Machine>,
        task: u32,
        name: &str,
        num_contexts: usize,
    ) -> Arc<Client> {
        assert!(num_contexts >= 1, "a client needs at least one context");
        let (id, endpoints) = machine.client(name, num_contexts);
        let contexts = (0..num_contexts as u16)
            .map(|offset| Context::create(machine, &endpoints, task, offset))
            .collect();
        Arc::new(Client {
            machine: Arc::clone(machine),
            id,
            name: name.to_string(),
            task,
            contexts,
        })
    }

    /// The machine this client runs on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Client name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The owning task.
    pub fn task(&self) -> u32 {
        self.task
    }

    /// Numeric client id (shared by same-named clients on all tasks).
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Number of contexts.
    pub fn num_contexts(&self) -> usize {
        self.contexts.len()
    }

    /// Context by offset.
    pub fn context(&self, offset: usize) -> &Arc<Context> {
        &self.contexts[offset]
    }

    /// All contexts.
    pub fn contexts(&self) -> &[Arc<Context>] {
        &self.contexts
    }

    /// This task's endpoint for context `offset`.
    pub fn endpoint(&self, offset: u16) -> Endpoint {
        Endpoint { task: self.task, context: offset }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_creates_contexts_with_distinct_endpoints() {
        let machine = Machine::with_nodes(2).build();
        let c0 = Client::create(&machine, 0, "test", 3);
        let c1 = Client::create(&machine, 1, "test", 3);
        assert_eq!(c0.id(), c1.id(), "same name, same instance");
        assert_eq!(c0.num_contexts(), 3);
        assert_ne!(c0.endpoint(0), c0.endpoint(1));
        assert_eq!(c0.context(2).offset(), 2);
    }

    #[test]
    fn different_names_are_isolated_instances() {
        let machine = Machine::with_nodes(1).build();
        let mpi = Client::create(&machine, 0, "MPI", 1);
        let upc = Client::create(&machine, 0, "UPC", 1);
        assert_ne!(mpi.id(), upc.id());
    }

    #[test]
    #[should_panic(expected = "created with 3 contexts, but an earlier task created it with 2")]
    fn context_count_mismatch_across_tasks_panics_naming_both() {
        let machine = Machine::with_nodes(2).build();
        let _c0 = Client::create(&machine, 0, "x", 2);
        let _c1 = Client::create(&machine, 1, "x", 3);
    }

    #[test]
    fn contexts_consume_node_fifo_budget() {
        let machine = Machine::with_nodes(1).build();
        let _c = Client::create(&machine, 0, "greedy", 8);
        // 8 contexts × 1 rec fifo: the node must have handed out 8.
        for _ in 8..bgq_mu::REC_FIFOS_PER_NODE {
            assert!(machine.fabric().alloc_rec_fifo(0).is_some(), "exactly 8 consumed so far");
        }
        assert!(machine.fabric().alloc_rec_fifo(0).is_none());
    }
}
