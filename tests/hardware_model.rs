//! Property-based model checking of the hardware structures: arbitrary
//! operation sequences executed single-threaded must agree exactly
//! with the obvious sequential models. (Concurrency is covered by the
//! stress tests in `pwf-hardware` and `tests/hardware_integration.rs`;
//! this file pins down sequential semantics, pool accounting, and
//! error behaviour.)

use practically_wait_free::hardware::msqueue::{MsQueue, QueueError};
use practically_wait_free::hardware::treiber::{StackError, TreiberStack};
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u64),
    Pop,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![(0u64..1000).prop_map(Op::Push), Just(Op::Pop)],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stack_matches_vec_model(ops in arb_ops(), capacity in 1usize..64) {
        let stack = TreiberStack::with_capacity(capacity);
        let mut model: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    let result = stack.push(v);
                    if model.len() < capacity {
                        prop_assert_eq!(result, Ok(()));
                        model.push(v);
                    } else {
                        prop_assert_eq!(result, Err(StackError::PoolExhausted));
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(stack.pop(), model.pop());
                }
            }
            prop_assert_eq!(stack.is_empty(), model.is_empty());
        }
        // Drain and compare the remainder in LIFO order.
        while let Some(expected) = model.pop() {
            prop_assert_eq!(stack.pop(), Some(expected));
        }
        prop_assert_eq!(stack.pop(), None);
    }

    #[test]
    fn queue_matches_deque_model(ops in arb_ops(), capacity in 1usize..64) {
        let queue = MsQueue::with_capacity(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    let result = queue.enqueue(v);
                    if model.len() < capacity {
                        prop_assert_eq!(result, Ok(()));
                        model.push_back(v);
                    } else {
                        prop_assert_eq!(result, Err(QueueError::PoolExhausted));
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(queue.dequeue(), model.pop_front());
                }
            }
            prop_assert_eq!(queue.is_empty(), model.is_empty());
        }
        while let Some(expected) = model.pop_front() {
            prop_assert_eq!(queue.dequeue(), Some(expected));
        }
        prop_assert_eq!(queue.dequeue(), None);
    }

    #[test]
    fn fai_counter_is_a_counter(increments in 1u64..500) {
        use practically_wait_free::hardware::fai_counter::FaiCounter;
        let c = FaiCounter::new();
        for expected in 0..increments {
            let (v, steps) = c.fetch_and_inc();
            prop_assert_eq!(v, expected);
            prop_assert_eq!(steps, 2); // uncontended: read + CAS
        }
        prop_assert_eq!(c.load(), increments);
    }

    #[test]
    fn spinlock_counter_is_a_counter(increments in 1u64..500) {
        use practically_wait_free::hardware::spinlock::SpinlockCounter;
        let c = SpinlockCounter::new();
        for expected in 0..increments {
            let (v, steps) = c.increment();
            prop_assert_eq!(v, expected);
            prop_assert_eq!(steps, 4); // uncontended TAS + read + write + unlock
        }
        prop_assert_eq!(c.load(), increments);
    }
}

#[test]
fn queue_pool_accounting_under_interleaved_exhaustion() {
    // Enqueue to exhaustion, drain halfway, repeat — the dummy-node
    // accounting must never leak slots.
    let capacity = 8;
    let q = MsQueue::with_capacity(capacity);
    for round in 0..50u64 {
        let mut enqueued = 0u64;
        while q.enqueue(round * 1000 + enqueued).is_ok() {
            enqueued += 1;
        }
        assert_eq!(enqueued, capacity as u64, "round {round} lost slots");
        for i in 0..capacity as u64 / 2 {
            assert_eq!(q.dequeue(), Some(round * 1000 + i));
        }
        for i in capacity as u64 / 2..capacity as u64 {
            assert_eq!(q.dequeue(), Some(round * 1000 + i));
        }
        assert_eq!(q.dequeue(), None);
    }
}
