//! Temporary guards. `Table`'s guards are all dropped before its second
//! acquisition, so it must stay quiet: a `let` that binds a value computed
//! from the guard drops the guard at the `;`, and a guard taken in an
//! `if let` or `match` scrutinee is dropped where the construct ends. The
//! other four structs each still hold their guard at the second
//! acquisition, so each must report a re-entrant lock.

use std::collections::HashMap;
use std::sync::Mutex;

pub struct Table {
    entries: Mutex<HashMap<u32, u32>>,
}

impl Table {
    pub fn let_temporary(&self, k: u32) -> u32 {
        let v = self.entries.lock().get(&k).cloned();
        let mut entries = self.entries.lock();
        *entries.entry(k).or_insert(v.unwrap_or(0))
    }

    pub fn if_let_then_lock(&self, k: u32) -> u32 {
        if let Some(v) = self.entries.lock().get(&k) {
            return *v;
        }
        let mut entries = self.entries.lock();
        *entries.entry(k).or_insert(0)
    }

    pub fn match_then_lock(&self, k: u32) -> u32 {
        match self.entries.lock().get(&k) {
            Some(v) => return *v,
            None => {}
        }
        let mut entries = self.entries.lock();
        *entries.entry(k).or_insert(0)
    }
}

pub struct InBody {
    entries: Mutex<HashMap<u32, u32>>,
}

impl InBody {
    pub fn lock_in_if_let_body(&self, k: u32) -> u32 {
        if let Some(v) = self.entries.lock().get(&k) {
            let n = self.entries.lock().len() as u32;
            return *v + n;
        }
        0
    }
}

pub struct InElse {
    entries: Mutex<HashMap<u32, u32>>,
}

impl InElse {
    pub fn lock_in_else(&self, k: u32) -> u32 {
        if let Some(v) = self.entries.lock().get(&k) {
            *v
        } else {
            self.entries.lock().len() as u32
        }
    }
}

pub struct InArm {
    entries: Mutex<HashMap<u32, u32>>,
}

impl InArm {
    pub fn lock_in_match_arm(&self, k: u32) -> u32 {
        match self.entries.lock().get(&k) {
            Some(v) => *v,
            None => self.entries.lock().len() as u32,
        }
    }
}

pub struct AfterLet {
    entries: Mutex<HashMap<u32, u32>>,
}

impl AfterLet {
    pub fn lock_after_let_guard(&self, k: u32) -> u32 {
        let entries = self.entries.lock();
        let v = entries.get(&k).copied().unwrap_or(0);
        v + self.entries.lock().len() as u32
    }
}
