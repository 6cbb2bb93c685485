//! Behavioral (golden-model) FSM simulation.

use crate::model::{Fsm, StateId};

/// A behavioral simulator for an [`Fsm`] — the golden reference against
/// which lowered and hardened netlists are equivalence-checked.
///
/// Unlike the gate-level simulator, this one cannot experience faults: it
/// always follows the FSM's defined semantics, which is exactly the paper's
/// fault-free copy `FSM_F̄` in the security goal `φ_F(S, X, F_N) =?
/// φ_F̄(S, X, 0)` (§3.2).
///
/// # Example
///
/// ```
/// use scfi_fsm::{FsmBuilder, FsmSimulator, Guard};
///
/// let mut b = FsmBuilder::new("m");
/// let go = b.signal("go")?;
/// let idle = b.state("IDLE")?;
/// let run = b.state("RUN")?;
/// let busy = b.output("busy")?;
/// b.assert_output(run, busy);
/// b.transition(idle, run, Guard::if_set(go));
/// let fsm = b.finish()?;
///
/// let mut sim = FsmSimulator::new(&fsm);
/// assert_eq!(sim.state(), idle);
/// sim.step(&[true]);
/// assert_eq!(sim.state(), run);
/// assert_eq!(sim.outputs(), vec![true]);
/// # Ok::<(), scfi_fsm::FsmError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FsmSimulator<'f> {
    fsm: &'f Fsm,
    state: StateId,
    cycle: u64,
}

impl<'f> FsmSimulator<'f> {
    /// Starts at the reset state.
    pub fn new(fsm: &'f Fsm) -> Self {
        FsmSimulator {
            fsm,
            state: fsm.reset_state(),
            cycle: 0,
        }
    }

    /// The FSM under simulation.
    pub fn fsm(&self) -> &'f Fsm {
        self.fsm
    }

    /// Current state.
    pub fn state(&self) -> StateId {
        self.state
    }

    /// Completed steps since construction/reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Returns to the reset state.
    pub fn reset(&mut self) {
        self.state = self.fsm.reset_state();
        self.cycle = 0;
    }

    /// Advances one step and returns the new state.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the FSM's signal count.
    pub fn step(&mut self, inputs: &[bool]) -> StateId {
        self.state = self.fsm.next_state(self.state, inputs);
        self.cycle += 1;
        self.state
    }

    /// Moore outputs asserted in the current state, indexed by
    /// [`OutputId`](crate::OutputId).
    pub fn outputs(&self) -> Vec<bool> {
        let mut out = vec![false; self.fsm.outputs().len()];
        for &o in self.fsm.asserted_outputs(self.state) {
            out[o.0] = true;
        }
        out
    }

    /// Runs a full input trace, returning the visited states (one entry per
    /// step, excluding the initial state).
    pub fn run(&mut self, trace: &[Vec<bool>]) -> Vec<StateId> {
        trace.iter().map(|inputs| self.step(inputs)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FsmBuilder, Guard};

    fn traffic() -> Fsm {
        let mut b = FsmBuilder::new("traffic");
        let tick = b.signal("tick").unwrap();
        let red = b.state("RED").unwrap();
        let green = b.state("GREEN").unwrap();
        let yellow = b.state("YELLOW").unwrap();
        let go = b.output("go").unwrap();
        b.assert_output(green, go);
        b.transition(red, green, Guard::if_set(tick));
        b.transition(green, yellow, Guard::if_set(tick));
        b.transition(yellow, red, Guard::if_set(tick));
        b.finish().unwrap()
    }

    #[test]
    fn cycles_through_states() {
        let f = traffic();
        let mut sim = FsmSimulator::new(&f);
        let states = sim.run(&[vec![true], vec![true], vec![true]]);
        let names: Vec<&str> = states.iter().map(|&s| f.state_name(s)).collect();
        assert_eq!(names, vec!["GREEN", "YELLOW", "RED"]);
        assert_eq!(sim.cycle(), 3);
    }

    #[test]
    fn holds_without_tick() {
        let f = traffic();
        let mut sim = FsmSimulator::new(&f);
        sim.run(&[vec![false], vec![false]]);
        assert_eq!(f.state_name(sim.state()), "RED");
    }

    #[test]
    fn outputs_follow_state() {
        let f = traffic();
        let mut sim = FsmSimulator::new(&f);
        assert_eq!(sim.outputs(), vec![false]);
        sim.step(&[true]);
        assert_eq!(sim.outputs(), vec![true]); // GREEN asserts go
        sim.step(&[true]);
        assert_eq!(sim.outputs(), vec![false]);
    }

    #[test]
    fn reset_and_set_state() {
        let f = traffic();
        let mut sim = FsmSimulator::new(&f);
        sim.step(&[true]);
        sim.reset();
        assert_eq!(sim.state(), f.reset_state());
        assert_eq!(sim.cycle(), 0);
    }
}
