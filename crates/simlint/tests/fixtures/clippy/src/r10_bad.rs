//! R10 fixture: interior mutability, shared state and thread-local
//! storage, one line per `clippy.toml` entry. Test code is in scope too.

use std::cell::RefCell; //~ clippy::disallowed_types
use std::sync::atomic::AtomicU64; //~ clippy::disallowed_types
use std::sync::Mutex; //~ clippy::disallowed_types
use std::sync::*;

static mut GLOBAL_TICKS: u64 = 0;

pub fn ticks() -> u64 {
    unsafe { GLOBAL_TICKS } //~ unsafe_code
}

thread_local! { //~ clippy::disallowed_macros
    pub static SCRATCH: Vec<u64> = const { Vec::new() };
}

pub struct State {
    pub cached: RefCell<u64>,    //~ clippy::disallowed_types
    pub shared: Mutex<Vec<u64>>, //~ clippy::disallowed_types
    pub count: AtomicU64,        //~ clippy::disallowed_types
    // Named only through the `std::sync` glob.
    pub lock: RwLock<u64>,                       //~ clippy::disallowed_types
    pub once_lock: OnceLock<u64>,                //~ clippy::disallowed_types
    pub lazy_lock: LazyLock<u64>,                //~ clippy::disallowed_types
    pub wake: Condvar,                           //~ clippy::disallowed_types
    pub cell: std::cell::Cell<u64>,              //~ clippy::disallowed_types
    pub unsafe_cell: std::cell::UnsafeCell<u64>, //~ clippy::disallowed_types
    pub once_cell: std::cell::OnceCell<u64>,     //~ clippy::disallowed_types
    pub lazy_cell: std::cell::LazyCell<u64>,     //~ clippy::disallowed_types
    pub a_bool: atomic::AtomicBool,              //~ clippy::disallowed_types
    pub a_i8: atomic::AtomicI8,                  //~ clippy::disallowed_types
    pub a_i16: atomic::AtomicI16,                //~ clippy::disallowed_types
    pub a_i32: atomic::AtomicI32,                //~ clippy::disallowed_types
    pub a_i64: atomic::AtomicI64,                //~ clippy::disallowed_types
    pub a_isize: atomic::AtomicIsize,            //~ clippy::disallowed_types
    pub a_u8: atomic::AtomicU8,                  //~ clippy::disallowed_types
    pub a_u16: atomic::AtomicU16,                //~ clippy::disallowed_types
    pub a_u32: atomic::AtomicU32,                //~ clippy::disallowed_types
    pub a_usize: atomic::AtomicUsize,            //~ clippy::disallowed_types
    pub a_ptr: atomic::AtomicPtr<u64>,           //~ clippy::disallowed_types
}

#[cfg(test)]
mod tests {
    use std::cell::Cell; //~ clippy::disallowed_types

    #[test]
    fn test_scratch_state_is_in_scope() {
        let c = Cell::new(1u8); //~ clippy::disallowed_types
        assert_eq!(c.get(), 1);
    }
}
